"""The parts of the command line that no table subcommand runs.

The usage and help texts, generated from :data:`minaff.cli._COMMANDS`, the
``xi`` and ``drinfeld`` handlers with their report helpers, and the
classifying polynomial data that only the ``drinfeld`` handler reads
(:func:`drinfeld`, a plain tuple of factor triples).  Only ``--help``, a refused command line, ``xi`` and
``drinfeld`` import this module, so a ``char``, ``decomp`` or ``sam``
process never compiles it.
"""

from . import cli
from .cli import _csv_text, _json_text, _meta, _parse_weight
from .errors import InputError


# ---------------------------------------------------------------------------
# usage and help, read off cli._COMMANDS at each call, so that they always
# describe the table the parser reads


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
# the classifying polynomial data


def drinfeld(n, lam, s, epsilon=1):
    """Classifying polynomial data, instantiated exactly: one factor per
    supported node i, a (node, degree, power-offset) triple (i, lam_i, c)
    relative to a symbolic base point."""
    from .cartan import check_dominant, resolve_family

    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if epsilon not in (1, -1):
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
    from . import affinization
    from .cartan import resolve_family

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    xs = affinization.xi_sequence(n, lam, s)
    lams = None
    if s != n - 1:
        lams = affinization.lambda_sequence(n, lam, s)
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

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    eps = _parse_epsilon(opts["epsilon"])
    factors = drinfeld(n, lam, s, eps)
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
