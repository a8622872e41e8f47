"""The parts of the command line that a canonical table command line never runs.

The full argument parser (:func:`_parse_full`, a stdlib ``argparse``
parser built from :data:`minaff.cli._COMMANDS` at each call, which reads
every spelling, prints the help and builds every refusal), the CSV and
aligned-text writers (:func:`report_text`, which builds every such form
of every subcommand from the report dict that :func:`minaff.cli.run`
would write as JSON), the ``xi`` and ``drinfeld`` handlers, which return
their report dicts, and the classifying polynomial data that only the
``drinfeld`` handler reads (:func:`drinfeld`, a plain tuple of factor
triples).  Only ``--help``, a refused command line, any spelling other
than the canonical one, a CSV or aligned-text report, ``xi`` and
``drinfeld`` import this module, so ``--version`` and a canonical
``char``, ``decomp``, ``sam`` or ``verify`` process writing JSON never
compile it; ``argparse`` loads only inside the full parser.
"""

import io

from . import InputError, __version__, cli


# ---------------------------------------------------------------------------
# the full parser: argparse, built from cli._COMMANDS at each call


def _parse_full(argv):
    """The subcommand and its options {name: value} for ``argv``, or the
    help or version text to print, by argparse's rules: ``--opt value``,
    ``--opt=value`` and unique prefixes of option names (an exact name
    first); a repeated option keeps its last value.  Raises InputError,
    the message followed by the usage line, for an argument list that
    argparse refuses, and for any that holds ``--``."""
    import argparse

    class Shown(Exception):
        """The help or version text, which ends the parse."""

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            raise InputError(f"{message}\n{self.format_usage().rstrip()}")

        def print_help(self, file=None):  # what -h and --help run
            raise Shown(self.format_help())

    class Version(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            raise Shown(f"minaff {__version__}\n")

    def layout(prog):  # help and usage at a fixed width, whatever the terminal
        return argparse.HelpFormatter(prog, width=80)

    parser = Parser(
        prog="minaff",
        description="Exact characters and multiplicities of regular minimal affinizations "
        "in type D.",
        formatter_class=layout,
    )
    parser.add_argument(
        "--version", action=Version, nargs=0, default=argparse.SUPPRESS,
        help="print the version and exit",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (_, line, options) in cli._COMMANDS.items():
        sub = commands.add_parser(command, help=line, description=line, formatter_class=layout)
        for name, value, default, text in options:
            required = default is cli._REQUIRED
            sub.add_argument(
                name,
                type=int if value is int else None,
                choices=value if isinstance(value, tuple) else None,
                required=required,
                default=None if required else default,
                help=text if required or default is None else f"{text} (default: {default})",
            )
    if "--" in argv:
        parser.error("'--' is not accepted")
    try:
        opts = vars(parser.parse_args(argv))
    except Shown as shown:
        return shown.args[0]
    return opts.pop("command"), opts


# ---------------------------------------------------------------------------
# the CSV and aligned-text writers


def _csv_text(header, rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(fmt, report):
    """The ``csv`` or ``pretty`` form of a ``char``, ``decomp`` or ``sam`` report."""
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


def _family_str(n, s):
    return {1: "1", n - 1: "n-1", n: "n"}[s]


def _xi_text(fmt, report):
    """The ``csv`` or ``pretty`` form of an ``xi`` report: each weight as
    :func:`_weight_json` gives it, its finite coordinates joined."""
    n, s = report["n"], report["s"]
    sequences = (("xi", report["xi"]), ("Lambda", report["Lambda"] or ()))
    if fmt == "csv":
        rows = [
            (seq, j, " ".join(map(str, w["finite"])), w["level"], w["delta"])
            for seq, weights in sequences
            for j, w in enumerate(weights, 1)
        ]
        return _csv_text(("seq", "j", "finite", "level", "delta"), rows)
    lines = [f"n = {n}  s = {_family_str(n, s)}  lambda = {','.join(map(str, report['lambda']))}"]
    if report["m"] is not None:
        lines.append(f"m = {report['m']}  m' = {report['m_prime']}")
    if report["cut"] is not None:
        lines.append(f"cut = {report['cut']}  lambda_bar = {report['lambda_bar']}")
    for seq, weights in sequences:
        for j, w in enumerate(weights, 1):
            finite = ",".join(map(str, w["finite"]))
            pad = " " * (6 - len(seq))  # the = of xi_j and Lambda_j in one column
            lines.append(f"{seq}_{j}{pad} = {finite}  level {w['level']}  delta {w['delta']}")
    return "\n".join(lines) + "\n"


def _drinfeld_text(fmt, report):
    factors = report["factors"]
    if fmt == "csv":
        return _csv_text(("i", "m", "c"), map(dict.values, factors))
    n, sign = report["n"], "+" if report["epsilon"] > 0 else "-"
    lines = [f"n = {n}  s = {_family_str(n, report['s'])}  epsilon = {sign}"]
    for f in factors:
        lines.append(f"node {f['i']}: degree {f['m']}, offset q^{f['c']}")
    if not factors:
        lines.append("trivial (zero weight)")
    return "\n".join(lines) + "\n"


def _verify_text(fmt, report):
    checks = report["checks"]
    if fmt == "csv":
        return _csv_text(("check", "status"), map(dict.values, checks))
    lines = [f"{'ok  ' if c['status'] == 'pass' else 'FAIL'} {c['name']}" for c in checks]
    lines.append(f"{report['passed']} passed, {report['failed']} failed")
    return "\n".join(lines) + "\n"


def report_text(command, fmt, report):
    """The ``csv`` or ``pretty`` form of ``command``'s ``report``, the dict
    that :func:`minaff.cli.run` writes as JSON, built from that dict alone."""
    writers = {"xi": _xi_text, "drinfeld": _drinfeld_text, "verify": _verify_text}
    return writers.get(command, _table_text)(fmt, report)


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


def xi_report(opts):
    from .affinization import _lambda_keys, xi_sequence
    from .weyl import fw_from_eps2

    n = opts["n"]
    xs = xi_sequence(n, opts["lambda"], opts["s"])
    lams = None
    if xs.s != n - 1:  # the rows of both sequences in fundamental coordinates
        lams = [fw_from_eps2(n, k[:n]) + k[n:] for k in _lambda_keys(n, xs.keys)]
    return {
        "n": n,
        "s": xs.s,
        "lambda": list(xs.lam),
        "m": xs.m,
        "m_prime": xs.m_prime,
        "cut": xs.cut,
        "lambda_bar": xs.lambda_bar,
        "xi": [_weight_json(x) for x in xs.keys],
        "Lambda": [_weight_json(x) for x in lams] if lams else None,
    }, 0


def drinfeld_report(opts):
    from .cartan import resolve_family

    n, lam = opts["n"], opts["lambda"]
    eps = _parse_epsilon(opts["epsilon"])
    factors = drinfeld(n, lam, opts["s"], eps)
    return {
        "n": n,
        "s": resolve_family(n, opts["s"]),  # drinfeld returns only the factors
        "epsilon": eps,
        "lambda": list(lam),
        "factors": [{"i": i, "m": m, "c": c} for i, m, c in factors],
    }, 0
