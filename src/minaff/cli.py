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
Each handler returns its report as data, a dict, with its exit code, and
:func:`run` alone picks the format: it writes JSON itself, adding the
``meta`` field last, and hands any other format to
:func:`minaff.cli_extra.report_text`, which builds every CSV and
aligned-text form from that same dict.

One table, ``_COMMANDS``, names each subcommand's handler (by module, as
``"module:function"``), help line and options; :func:`_parse` reads the
argument list against it, and the full parser, with its usage and help,
is built from it.  :func:`run` checks the rank and converts the
``--lambda`` and ``--mu`` weights, refusing a ``--mu`` that is not
dominant, before it imports the handler, so no table is built for a bad
``--mu``; each handler hands the raw family label to the library entry
point, so input is refused in the library's order (``sam`` checks its
optional ``--s`` first, as ``sam_table`` takes no label).  The command
line takes ``--opt value``, ``--opt=value`` and unique prefixes of option
names (an exact name first); a repeated option keeps its last value.
Anything else is invalid input.  :func:`_parse` reads the canonical
spelling, ``--version`` alone or a subcommand followed by exact option
names each with a value that does not start with ``-``; every other
argument list goes to the full parser,
:func:`minaff.cli_extra._parse_full`, which is argparse, the reference on
all input, and builds every refusal.

This module holds only what a canonical table command line (``char``,
``decomp``, ``sam``, JSON output) runs: a process run without cached
bytecode compiles every module it imports, in full.  ``run`` imports only
the handler's module, and each handler imports the modules it runs, so a
``sam`` process never loads the Demazure side: it reads only
:mod:`minaff.cartan`, the weight lattice and labels that both pipelines
share, which knows no root, and :mod:`minaff.spbranch`.  A ``char`` or
``decomp`` process loads exactly ``cartan``, :mod:`minaff.weyl` and
:mod:`minaff.affinization`, whose table path runs on plain maps from keys
to coefficients and stops before the longest-element pass, so the full
character (:mod:`minaff.polyring`) does not load.  ``weyl`` holds only the
integer key kernel that path runs.  ``cartan`` loads once the command line
has parsed, and JSON is written here without ``json``.  ``--version``
loads nothing beyond this module and the package root, which defines the
exception types.  The full parser (argparse, with the usage and help), the
CSV and aligned-text writers, the ``xi`` and ``drinfeld`` handlers and
the classifying polynomial data live in :mod:`minaff.cli_extra`, which
only ``--help``, a refused command line, any other spelling, a CSV or
aligned-text report of any subcommand (``verify``'s default among them),
``xi`` and ``drinfeld`` load (``csv`` only for a CSV report); the
``verify`` suites live in :mod:`minaff.verify`, which only ``verify``
loads.

Exit codes: 0 success, 2 invalid input, 3 internal verification failure,
and 1 from :func:`main` when the report could not be written: the reader
of standard output closed the pipe before it was written (silently, no
traceback is printed), or any other write error, such as a full device
or standard output closed at start (one line, ``error: cannot write the
report: ...``, on standard error).
Output is byte-stable for a fixed invocation: the elapsed-time field in
JSON metadata always reports 0.

The process ends with a hard exit once the command is done: :func:`main`
runs the atexit handlers, flushes standard output and standard error, as
the interpreter's own shutdown does, and then calls ``os._exit``, which
skips tearing down every object that start-up and the run left behind.
A process that something watches (a profiler, a tracer, a
``sys.monitoring`` tool or ``python -i``) exits the normal way, so its
watcher still sees the end.  :func:`run`, which the tests and the
benchmark's traced worker call in-process, returns its code and does not
exit.
"""

import atexit
import io
import os
import sys
from importlib import import_module

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


# ---------------------------------------------------------------------------
# reports


def _table_report(opts, n, s, lam, mults):
    from .cartan import _dim_irr

    entries = [
        {"mu": list(mu), "m": m, "dim": _dim_irr(n, mu)} for mu, m in _sorted_mults(n, mults)
    ]
    dimension = sum(e["m"] * e["dim"] for e in entries)
    mu = opts.get("mu")
    if mu is not None:  # checked dominant by ``run``; a table holds only dominant weights
        entries = [{"mu": list(mu), "m": mults.get(mu, 0), "dim": _dim_irr(n, mu)}]
    return {"n": n, "s": s, "lambda": list(lam), "dimension": dimension, "multiplicities": entries}


def _cmd_char(opts):
    from .affinization import _regular_input, _table

    n = opts["n"]
    lam, s = _regular_input(n, opts["lambda"], opts["s"])
    return _table_report(opts, n, s, lam, _table(n, lam, s)), 0


def _cmd_sam(opts):
    from .spbranch import sam_table

    n, lam = opts["n"], opts["lambda"]
    if opts["s"] is not None:  # sam_table takes no label, so the label is checked first
        from .cartan import resolve_family

        if resolve_family(n, opts["s"]) != 1:
            raise InputError("the symplectic pipeline covers the s = 1 family only")
    return _table_report(opts, n, 1, lam, sam_table(n, lam)), 0


# ---------------------------------------------------------------------------
# the command table and its parser

# A subcommand is (handler, help line, options); the handler is named
# "module:function" within the package and imported when it runs.  An
# option is (name, value, default, help line).  The value is ``int``,
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
    "char": ("cli:_cmd_char", "multiplicity table via the Demazure character",
             (_N, _LAMBDA, _S, _FORMAT, _MU)),
    "decomp": ("cli:_cmd_char", "same table, filterable to a single weight",
               (_N, _LAMBDA, _S, _FORMAT, _MU)),
    "sam": ("cli:_cmd_sam", "multiplicity table via the symplectic pipeline",
            (_N, _LAMBDA, ("--s", str, None, "must resolve to 1 if given"), _MU, _FORMAT)),
    "xi": ("cli_extra:xi_report", "tensor-factor weights and their rotated forms",
           (_N, _LAMBDA, _S, _FORMAT)),
    "drinfeld": ("cli_extra:drinfeld_report", "classifying polynomial offsets",
                 (_N, _LAMBDA, _S, _FORMAT, ("--epsilon", str, "+", "sign: + or -"))),
    "verify": ("verify:verify_report", "run internal consistency suites",
               (_N, ("--suite", ("demazure", "weyl", "pipeline", "all"), "all", "suite to run"),
                ("--format", _FORMATS, "pretty", "report format"))),
}


def _parse(argv):
    """The subcommand and its options {name: value} for ``argv``, or the
    version text to print.  This reads the canonical spelling only:
    ``--version`` alone, or a subcommand followed by exact option names,
    each with its own value, which does not start with ``-``.  Any other
    argument list, every refused one included, goes to
    :func:`minaff.cli_extra._parse_full`, which is argparse and gives the
    same result on the canonical spelling."""
    if argv == ["--version"]:
        return f"minaff {__version__}\n"
    if argv and argv[0] in _COMMANDS and len(argv) % 2:
        table = {name: (value, default) for name, value, default, _ in _COMMANDS[argv[0]][2]}
        opts = {}
        for name, raw in zip(argv[1::2], argv[2::2]):
            if name not in table or raw[:1] == "-":
                break
            kind = table[name][0]
            if kind is int:
                try:
                    raw = int(raw)
                except ValueError:
                    break
            elif kind is not str and raw not in kind:
                break
            opts[name[2:]] = raw
        else:
            for name, (_, default) in table.items():
                opts.setdefault(name[2:], default)
            if _REQUIRED not in opts.values():
                return argv[0], opts
    from .cli_extra import _parse_full

    return _parse_full(argv)


def run(argv):
    """Parse arguments, check the rank and convert the weights, execute,
    print the report; returns the exit code."""
    try:
        parsed = _parse(argv)
        if isinstance(parsed, str):  # help or version
            text, code = parsed, 0
        else:
            from .cartan import check_dominant, check_rank

            command, opts = parsed
            n = opts["n"]
            check_rank(n)
            for name in ("lambda", "mu"):
                if opts.get(name) is not None:
                    opts[name] = _parse_weight(opts[name], n)
            if opts.get("mu") is not None:
                check_dominant(n, opts["mu"])
            module, _, handler = _COMMANDS[command][0].partition(":")
            report, code = getattr(import_module("." + module, __package__), handler)(opts)
            if opts["format"] == "json":
                report["meta"] = {"tool_version": __version__, "elapsed_ms": 0}
                text = _json_text(report)
            else:
                from .cli_extra import report_text

                text = report_text(command, opts["format"], report)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CharacterError, VerificationError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


def _watched():
    """Whether a profiler, a tracer, a ``sys.monitoring`` tool (how
    ``python -m cProfile`` profiles on 3.12 and later) or ``python -i``
    expects the process to end the normal way."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(
        sys.getprofile()
        or sys.gettrace()
        or sys.flags.inspect
        or (monitoring and any(monitoring.get_tool(tool) is not None for tool in range(6)))
    )


def main():
    """The console entry point: ``run`` the command line, then exit with its
    code.  A report that cannot be written ends the process with status 1
    and no traceback: silently when the reader closed the pipe early,
    with one line on standard error for any other write error.  Standard
    output is then pointed at devnull (the SIGPIPE recipe of the ``signal``
    docs), so the rest of the buffer is never written again.  Unbuffered
    (``python -u``), standard output writes straight to a raw file, whose
    short write to a closed pipe the text layer ignores; a buffered writer
    retries it and raises, so a buffer goes under first.  A process
    started with standard output closed, where ``sys.stdout`` is None,
    gets the one line before any work starts."""
    if sys.stdout is None:
        import errno

        print(f"error: cannot write the report: {os.strerror(errno.EBADF)}", file=sys.stderr)
        sys.exit(1)
    raw = getattr(sys.stdout, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(raw), encoding=sys.stdout.encoding, errors=sys.stdout.errors
        )
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as e:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write the report: {e.strerror}", file=sys.stderr)
        code = 1
    if _watched():
        sys.exit(code)
    # The interpreter's own shutdown would run the atexit handlers, flush
    # stdout and stderr, and then tear down every object that site's .pth
    # files and the run left behind.  The hard exit keeps the first two and
    # skips the teardown: `python -c pass` took 38.6 ms, 33.8 ms ending in
    # gc.freeze() and 32.9 ms in os._exit (CPU-time medians of 40 processes
    # on Python 3.11.7, whose site leaves about 11,200 tracked objects).
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    main()
