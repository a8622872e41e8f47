"""The argparse parser the command line used to be built on, kept unchanged
as the reference for :func:`minaff.cli._parse`.

``tests/test_cli_parse.py`` runs both on generated argument lists: where
this parser accepts, the two must give the same value for every option;
where it refuses, ``minaff.cli.run`` must exit 2 with nothing on stdout.
"""

import argparse

from minaff import __version__


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
