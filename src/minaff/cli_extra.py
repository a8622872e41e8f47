"""The parts of the command line that a canonical table command line never runs.

The full argument parser (:func:`_parse_full`, which reads every spelling
argparse read and builds every refusal), the usage and help texts, both
generated from :data:`minaff.cli._COMMANDS` at each call, the CSV and
aligned-text table writers, the ``xi`` and ``drinfeld`` handlers with
their report helpers, and the classifying polynomial data that only the
``drinfeld`` handler reads (:func:`drinfeld`, a plain tuple of factor
triples).  Only ``--help``, a refused command line, any spelling other
than the canonical one, a CSV or aligned-text table, ``xi``, ``drinfeld``
and a CSV ``verify`` report import this module, so ``--version`` and a
canonical ``char``, ``decomp`` or ``sam`` process writing JSON never
compile it.
"""

import io

from . import InputError, __version__, cli
from .cli import _json_text, _meta


# ---------------------------------------------------------------------------
# the full parser, the usage and the help, each reading cli._COMMANDS at
# each call, so that they always read and describe the one table

_HELP = ("-h", "--help")


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


def _parse_full(argv):
    """The subcommand and its options {name: value} for ``argv``, or the
    help or version text to print, by argparse's rules: ``--opt value``,
    ``--opt=value`` and unique prefixes of option names (an exact name
    first); a repeated option keeps its last value.  Raises InputError
    for an argument list that argparse refused."""
    command, names, table, unknown, opts = None, (*_HELP, "--version"), {}, [], {}
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        opt = _option(token, names, command)
        if opt is None and command is None:
            if token not in cli._COMMANDS:
                raise _refuse(f"unknown subcommand {token!r}")
            command = token
            table = {
                name: (value, default) for name, value, default, _ in cli._COMMANDS[command][2]
            }
            names = (*_HELP, *table)
            continue
        name, raw = opt or (None, None)
        if name is None:
            unknown.append(token)
            continue
        if name in _HELP or name == "--version":
            if raw is not None:
                raise _refuse(f"{name} takes no value", command)
            if name == "--version":
                return f"minaff {__version__}\n"
            return _help(command)
        if raw is None:
            if i == len(argv) or _option(argv[i], names, command) is not None:
                raise _refuse(f"{name} expects a value", command)
            raw, i = argv[i], i + 1
        kind = table[name][0]
        if kind is int:
            try:
                raw = int(raw)
            except ValueError:
                raise _refuse(f"{name} expects an integer, got {raw!r}", command)
        elif kind is not str and raw not in kind:
            raise _refuse(f"{name} must be one of {', '.join(kind)}, got {raw!r}", command)
        opts[name[2:]] = raw
    if command is None:
        raise _refuse("a subcommand is required")
    for name, (_, default) in table.items():
        opts.setdefault(name[2:], default)
    missing = [name for name in table if opts[name[2:]] is cli._REQUIRED]
    if missing:
        raise _refuse(f"missing required options: {', '.join(missing)}", command)
    if unknown:
        raise _refuse(f"unrecognized arguments: {' '.join(unknown)}", command)
    return command, opts


def _metavar(name, value):
    return "{" + ",".join(value) + "}" if isinstance(value, tuple) else name[2:].upper()


def _usage(command=None):
    if command is None:
        return "usage: minaff [-h] [--version] {" + ",".join(cli._COMMANDS) + "} ..."
    parts = []
    for name, value, default, _ in cli._COMMANDS[command][2]:
        part = f"{name} {_metavar(name, value)}"
        parts.append(part if default is cli._REQUIRED else f"[{part}]")
    return f"usage: minaff {command} [-h] " + " ".join(parts)


def _columns(rows):
    width = max(len(left) for left, _ in rows) + 2
    return [f"  {left:<{width}}{right}" for left, right in rows]


def _help(command=None):
    help_row = ("-h, --help", "show this help and exit")
    if command is None:
        commands = [(name, line) for name, (_, line, _) in cli._COMMANDS.items()]
        options = [help_row, ("--version", "print the version and exit")]
        body = [
            "Exact characters and multiplicities of regular minimal affinizations in type D.",
            "", "commands:", *_columns(commands), "", "options:", *_columns(options),
        ]
    else:
        rows = [help_row]
        for name, value, default, line in cli._COMMANDS[command][2]:
            if default is not None:
                line += " (required)" if default is cli._REQUIRED else f" (default: {default})"
            rows.append((f"{name} {_metavar(name, value)}", line))
        body = [cli._COMMANDS[command][1], "", "options:", *_columns(rows)]
    return "\n".join([_usage(command), "", *body]) + "\n"


# ---------------------------------------------------------------------------
# the CSV and aligned-text writers


def _csv_text(header, rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def table_text(fmt, report):
    """The ``csv`` or ``pretty`` form of a ``char``, ``decomp`` or ``sam``
    table ``report``, the dict that :func:`minaff.cli._table_report` writes
    as JSON."""
    entries = report["multiplicities"]
    if fmt == "csv":
        rows = [(" ".join(map(str, e["mu"])), e["m"], e["dim"]) for e in entries]
        return _csv_text(("mu", "m", "dim"), rows)
    n, lam = report["n"], report["lambda"]
    lines = [
        f"n = {n}  s = {report['s']}  lambda = {','.join(map(str, lam))}",
        f"dimension = {report['dimension']}",
        "  mu" + " " * (3 * n - 1) + "m      dim",
    ]
    for e in entries:
        mu = ",".join(map(str, e["mu"]))
        lines.append(f"  {mu:<{3 * n + 1}}{e['m']:<7}{e['dim']}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the classifying polynomial data


def drinfeld(n, lam, s, epsilon=1):
    """Classifying polynomial data, instantiated exactly: one factor per
    supported node i, a (node, degree, power-offset) triple (i, lam_i, c)
    relative to a symbolic base point.  Checks (lam, s) once, and takes
    as ``epsilon`` only the int 1 or -1 (a bool or a float is no sign)."""
    from .cartan import check_dominant, resolve_family

    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if epsilon.__class__ is not int or epsilon not in (1, -1):
        raise InputError(f"epsilon must be +1 or -1, got {epsilon}")
    chain = lam[0] + 2 * sum(lam[1 : n - 2])

    def offset(i):
        if i == 1:
            return 0
        if 2 <= i <= n - 2:
            e = lam[0] + 2 * sum(lam[1 : i - 1]) + lam[i - 1] + i - 1
        elif s == 1 or i == s:
            e = chain + lam[i - 1] + n - 2
        else:
            e = lam[0] + 2 * sum(lam[1 : n - 3]) - lam[i - 1] + n - 4
        return epsilon * e

    return tuple((i, lam[i - 1], offset(i)) for i in range(1, n + 1) if lam[i - 1] > 0)


# ---------------------------------------------------------------------------
# the xi and drinfeld reports


def _parse_epsilon(raw):
    key = raw.strip()
    if key in ("+", "+1", "1"):
        return 1
    if key in ("-", "-1"):
        return -1
    raise InputError(f"epsilon must be + or -, got {raw!r}")


def _delta(d2):
    """Delta from the 2-delta slot of a key: the int k, or the string "k/2"
    for an odd slot, so that printed it reads as the reduced fraction."""
    return d2 // 2 if d2 % 2 == 0 else f"{d2}/2"


def _weight_json(k):
    return {"finite": list(k[:-2]), "level": k[-2], "delta": _delta(k[-1])}


def _weight_text(k, sep):
    """Finite part, level and delta of a key, the finite coordinates joined
    by ``sep``."""
    return sep.join(map(str, k[:-2])), k[-2], _delta(k[-1])


def _family_str(n, s):
    return {1: "1", n - 1: "n-1", n: "n"}[s]


def xi_report(opts):
    from .affinization import _lambda_keys, xi_sequence

    n = opts["n"]
    xs = xi_sequence(n, opts["lambda"], opts["s"])
    lam, s = xs.lam, xs.s
    lams = _lambda_keys(n, xs.keys) if s != n - 1 else None
    if opts["format"] == "json":
        report = {
            "n": n,
            "s": s,
            "lambda": list(lam),
            "m": xs.m,
            "m_prime": xs.m_prime,
            "cut": xs.cut,
            "lambda_bar": xs.lambda_bar,
            "xi": [_weight_json(x) for x in xs.keys],
            "Lambda": [_weight_json(x) for x in lams] if lams else None,
            "meta": _meta(),
        }
        return _json_text(report), 0
    if opts["format"] == "csv":
        rows = []
        for j, x in enumerate(xs.keys, 1):
            rows.append(("xi", j, *map(str, _weight_text(x, " "))))
        for j, x in enumerate(lams or (), 1):
            rows.append(("Lambda", j, *map(str, _weight_text(x, " "))))
        return _csv_text(("seq", "j", "finite", "level", "delta"), rows), 0
    lines = [f"n = {n}  s = {_family_str(n, s)}  lambda = {','.join(map(str, lam))}"]
    if xs.m is not None:
        lines.append(f"m = {xs.m}  m' = {xs.m_prime}")
    if xs.cut is not None:
        lines.append(f"cut = {xs.cut}  lambda_bar = {xs.lambda_bar}")
    for j, x in enumerate(xs.keys, 1):
        lines.append("xi_{}     = {}  level {}  delta {}".format(j, *_weight_text(x, ",")))
    for j, x in enumerate(lams or (), 1):
        lines.append("Lambda_{} = {}  level {}  delta {}".format(j, *_weight_text(x, ",")))
    return "\n".join(lines) + "\n", 0


def drinfeld_report(opts):
    from .cartan import resolve_family

    n, lam = opts["n"], opts["lambda"]
    eps = _parse_epsilon(opts["epsilon"])
    factors = drinfeld(n, lam, opts["s"], eps)
    s = resolve_family(n, opts["s"])  # for the report: drinfeld returns only the factors
    if opts["format"] == "json":
        report = {
            "n": n,
            "s": s,
            "epsilon": eps,
            "lambda": list(lam),
            "factors": [{"i": i, "m": m, "c": c} for i, m, c in factors],
            "meta": _meta(),
        }
        return _json_text(report), 0
    if opts["format"] == "csv":
        return _csv_text(("i", "m", "c"), list(factors)), 0
    lines = [f"n = {n}  s = {_family_str(n, s)}  epsilon = {'+' if eps > 0 else '-'}"]
    for i, m, c in factors:
        lines.append(f"node {i}: degree {m}, offset q^{c}")
    if not factors:
        lines.append("trivial (zero weight)")
    return "\n".join(lines) + "\n", 0
