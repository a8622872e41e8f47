"""Command-line front end.

Subcommands: ``char`` and ``decomp`` (multiplicity tables through the
Demazure pipeline, read off the nested polynomial before the longest-element
pass by dot-action straightening; :func:`minaff.polyring.character` remains
the full-character API), ``sam`` (the independent symplectic pipeline,
restricting a Schur functor to the symplectic algebra by Littlewood's rule),
``xi`` (tensor-factor weight data), ``drinfeld`` (classifying polynomial
offsets), and ``verify`` (internal consistency suites; ``pipeline`` checks
the straightened tables against the symplectic pipeline and their total
dimension against the mass of the full character).  Reports go to standard
output as JSON, CSV, or aligned text; diagnostics go to standard error.

One table, ``_COMMANDS``, names each subcommand's handler, help line and
options; :func:`_parse` reads the argument list against it, and
:mod:`minaff.cli_extra` generates the usage and help texts from it.  The
parser takes ``--opt value``, ``--opt=value`` and unique prefixes of option
names (an exact name first); a repeated option keeps its last value.
Anything else is invalid input.

This module holds only what a table process (``char``, ``decomp``, ``sam``)
runs: a process run without cached bytecode compiles every module it
imports, in full.  Each handler imports the modules it runs, so a
``sam`` process never loads the Demazure side: it reads only
:mod:`minaff.cartan`, the weight lattice and labels that both pipelines
share, which knows no root, and :mod:`minaff.spbranch`.  A ``char`` or
``decomp`` process loads exactly ``cartan``, :mod:`minaff.weyl` and
:mod:`minaff.affinization`, whose table path runs on plain maps from keys
to coefficients and stops before the longest-element pass, so the full
character (:mod:`minaff.polyring`) does not load.  ``cartan`` loads once
the command line has parsed, ``csv`` only for a CSV report, and JSON is
written here without ``json``.
``--version`` loads nothing beyond this module and the package root, which
defines the exception types.  The usage and help generator, the ``xi`` and
``drinfeld`` handlers and the classifying polynomial data live in
:mod:`minaff.cli_extra`, which only ``--help``, a refused command line,
``xi`` and ``drinfeld`` load; the ``verify`` suites live in
:mod:`minaff.verify`, which only ``verify`` loads.

Exit codes: 0 success, 2 invalid input, 3 internal verification failure,
and 1 from :func:`main` when the reader of standard output closed the
pipe before the report was written (no traceback is printed).
Output is byte-stable for a fixed invocation: the elapsed-time field in
JSON metadata always reports 0.

The process ends by freezing the heap (``gc.freeze``) once the command is
done: the process is about to exit, so a collection would reclaim nothing
worth the time, and frozen objects are skipped by the collections the
interpreter runs at shutdown, which would otherwise traverse everything
start-up and the run left behind.  :func:`run`, which
the tests and the benchmark's traced worker call in-process, does not freeze.
"""

import gc
import io
import os
import sys

from . import CharacterError, InputError, VerificationError, __version__


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


def _sorted_mults(n, mults):
    from .cartan import eps2

    keys = sorted(mults, key=lambda mu: (-sum(eps2(n, mu)), tuple(-v for v in mu)))
    return [(mu, mults[mu]) for mu in keys]


def _meta():
    return {"tool_version": __version__, "elapsed_ms": 0}


def _json_text(obj):
    """``json.dumps(obj, indent=2) + "\\n"``, written without loading ``json``.

    Takes exactly the values a report holds: dicts with ``str`` keys,
    lists, ints (not bools), None, and printable ASCII strings with no
    quote or backslash, which JSON writes verbatim.  Anything else raises
    rather than being guessed at; every report string comes from minaff.
    """
    out = []
    _json_write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _json_write(obj, pad, out):
    kind = type(obj)
    if obj is None:
        out.append("null")
    elif kind is int:
        out.append(repr(obj))
    elif kind is str:
        out.append(_json_str(obj))
    elif kind is list or kind is dict:
        if not obj:
            out.append("[]" if kind is list else "{}")
            return
        inner = pad + "  "
        out.append("[" if kind is list else "{")
        sep = inner
        for item in obj:
            out.append(sep)
            if kind is dict:
                if type(item) is not str:
                    raise TypeError(f"JSON report key {item!r} is not a str")
                out.append(_json_str(item) + ": ")
                item = obj[item]
            _json_write(item, inner, out)
            sep = "," + inner
        out.append(pad + ("]" if kind is list else "}"))
    else:
        raise TypeError(f"JSON report value {obj!r} is not a dict, list, int, str or None")


def _json_str(text):
    if not all(" " <= c <= "~" and c not in '"\\' for c in text):
        raise ValueError(f"JSON report string {text!r} needs escaping")
    return f'"{text}"'


def _csv_text(header, rows):
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# reports


def _table_report(opts, n, s, lam, mults):
    from .cartan import _dim_irr, dim_irr

    entries = [
        {"mu": list(mu), "m": m, "dim": _dim_irr(n, mu)} for mu, m in _sorted_mults(n, mults)
    ]
    dimension = sum(e["m"] * e["dim"] for e in entries)
    if opts.get("mu") is not None:
        mu = _parse_weight(opts["mu"], n)
        entries = [e for e in entries if tuple(e["mu"]) == mu]
        if not entries:  # a table holds only dominant weights; dim_irr refuses the rest
            entries = [{"mu": list(mu), "m": 0, "dim": dim_irr(n, mu)}]
    report = {
        "n": n,
        "s": s,
        "lambda": list(lam),
        "dimension": dimension,
        "multiplicities": entries,
        "meta": _meta(),
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


def _cmd_char(opts):
    from .affinization import multiplicity_table
    from .cartan import resolve_family

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"])
    return _table_report(opts, n, s, lam, multiplicity_table(n, lam, s)), 0


def _cmd_sam(opts):
    from .cartan import resolve_family
    from .spbranch import sam_table

    n = opts["n"]
    lam = _parse_weight(opts["lambda"], n)
    s = resolve_family(n, opts["s"] if opts["s"] is not None else 1)
    if s != 1:
        raise InputError("the symplectic pipeline covers the s = 1 family only")
    return _table_report(opts, n, 1, lam, sam_table(n, lam)), 0


def _cmd_xi(opts):
    from .cli_extra import xi_report

    return xi_report(opts)


def _cmd_drinfeld(opts):
    from .cli_extra import drinfeld_report

    return drinfeld_report(opts)


def _cmd_verify(opts):
    from .verify import verify_report

    return verify_report(opts)


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


def _refuse(message, command=None):
    from .cli_extra import _usage

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
        if name in _HELP:
            from .cli_extra import _help

            return _help()
        return f"minaff {__version__}\n"
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
            from .cli_extra import _help

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
    try:
        parsed = _parse(argv)
        if isinstance(parsed, str):  # help or version
            text, code = parsed, 0
        else:
            from .cartan import check_rank

            command, opts = parsed
            check_rank(opts["n"])
            text, code = _COMMANDS[command][0](opts)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CharacterError, VerificationError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


def main():
    """The console entry point: ``run`` the command line, then exit with its
    code.  A reader that closes the pipe early ends the process with status
    1 and no traceback (the SIGPIPE recipe of the ``signal`` docs: stdout is
    pointed at devnull, so the interpreter's final flush cannot raise).
    Unbuffered (``python -u``), standard output writes straight to a raw
    file, whose short write to a closed pipe the text layer ignores; a
    buffered writer retries it and raises, so a buffer goes under first."""
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw), encoding=sys.stdout.encoding, errors=sys.stdout.errors
        )
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # `python -c pass` took 69.9 ms, and 62.4 ms with a final gc.freeze()
    # (CPU-time medians of 60 processes on Python 3.11.7, whose site .pth
    # files leave about 11,200 tracked objects); on clean interpreters the
    # freeze saves 1-2 ms.  Freezing at entry came out slower on a rank-8
    # run, and os._exit would skip atexit handlers and the flush.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
