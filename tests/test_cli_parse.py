"""The argument parsers against the argparse parser the command line was once built on.

``_cli_oracle._build_parser`` is the old parser, unchanged.  On generated
argument lists that it accepts, :func:`minaff.cli._parse` must give the
same subcommand and the same value for every option; every list that it
refuses must make :func:`minaff.cli.run` exit 2 with nothing on stdout.
``cli._parse`` reads the canonical spelling itself and hands every other
argument list to :func:`minaff.cli_extra._parse_full`, an argparse parser
built from ``cli._COMMANDS``: the two must give the same value or the
same refusal on every list here, and a canonical list must never reach
the full parser.
"""

import contextlib
import io
import random

import pytest

from minaff import InputError, __version__, cli, cli_extra
from _cli_oracle import _build_parser

ORACLE = _build_parser()

# Values for each option; some are refused later by the handlers, but the
# parsers only have to agree on them.  "-4" and "-1" read as negative
# numbers, so both parsers take them as values.
VALUES = {
    "--n": ["4", "5", "6", "+5", " 4", "-4"],
    "--lambda": ["0,1,0,0", "1,1,0,2,0", "1, 0,0,0", "-", "x"],
    "--s": ["1", "n", "n-1", "-1", "N"],
    "--format": ["json", "csv", "pretty"],
    "--mu": ["0,0,0,0", "1,0,0,0", "-1"],
    "--epsilon": ["+", "-", "-1", "+1"],
    "--suite": ["demazure", "weyl", "pipeline", "all"],
}


def options(command):
    return cli._COMMANDS[command][2]


def spellings(command, name):
    """The exact name and every prefix of it that names no other option."""
    names = ["--help", *(opt[0] for opt in options(command))]
    prefixes = [name[:k] for k in range(3, len(name))]
    unique = [p for p in prefixes if sum(n.startswith(p) for n in names) == 1]
    return [name] + [p for p in unique if p not in names]


def oracle(argv):
    """(exit code, namespace as {name: value} or None, stdout) of the old parser."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            ns = ORACLE.parse_args(argv)
    except SystemExit as e:
        return e.code, None, out.getvalue()
    values = {("lambda" if k == "lam" else k): v for k, v in vars(ns).items()}
    return 0, values, out.getvalue()


def pairs(command, rng, required_only=False, canonical=False):
    """One (spelling, value) pair per option, in random order: every
    required one and, unless ``required_only``, each optional one half the
    time and a quarter of them given twice.  A ``canonical`` pair is the
    exact name and a value that does not start with "-"."""
    out = []
    for name, _, default, _ in options(command):
        if default is not cli._REQUIRED and (required_only or rng.random() < 0.5):
            continue
        for _ in range(2 if not required_only and rng.random() < 0.25 else 1):
            if canonical:
                values = [v for v in VALUES[name] if not v.startswith("-")]
                out.append((name, rng.choice(values)))
            else:
                out.append((rng.choice(spellings(command, name)), rng.choice(VALUES[name])))
    rng.shuffle(out)
    return out


def flatten(command, option_pairs, rng):
    argv = [command]
    for flag, value in option_pairs:
        argv += [f"{flag}={value}"] if rng.random() < 0.3 else [flag, value]
    return argv


def accepted_argvs():
    rng = random.Random(2013)
    argvs = [["verify", "--n", "4", "--s", "all"], ["verify", "--s=weyl", "--n=5"]]
    for command in cli._COMMANDS:
        argvs += [flatten(command, pairs(command, rng), rng) for _ in range(150)]
    return argvs


def canonical_argvs():
    """``--version`` and, for each subcommand, argument lists of exact
    option names in random order, some given twice, each with its value."""
    rng = random.Random(1310)
    argvs = [["--version"]]
    for command in cli._COMMANDS:
        for _ in range(40):
            option_pairs = pairs(command, rng, canonical=True)
            argvs.append([command, *(token for pair in option_pairs for token in pair)])
    return argvs


HELP_ARGVS = [["--help"], ["-h"], ["--he"], ["--frobnicate", "--help"]]


def subcommand_help_argvs(command):
    return [command, "--help"], [command, "-h"], [command, "--n", "4", "--frobnicate", "--hel"]


def refused_argvs():
    rng = random.Random(403)
    argvs = [
        [],
        ["--frobnicate"],
        ["chars", "--n", "4"],
        ["", "--n", "4"],
        ["--version=1"],
        ["--help=1"],
        ["char", "--help=1"],
    ]
    for command in cli._COMMANDS:
        for _ in range(12):
            base = pairs(command, rng, required_only=True)
            flat = flatten(command, base, rng)
            at = rng.randrange(1, len(flat) + 1)
            argvs.append(flat[:at] + ["--frobnicate", "1"] + flat[at:])  # unknown flag
            argvs.append(flat + [rng.choice(options(command))[0]])  # missing value
            split = [command] + [t for flag, value in base for t in (flag, value)]
            drop = 2 * rng.randrange(len(base)) + 2  # a value followed by a flag
            if drop < len(split):
                argvs.append(split[:drop] + split[drop + 1 :])
            argvs.append(flatten(command, base[1:], rng))  # missing required
            argvs.append(flat + ["--n", rng.choice(["x", "4.0", ""])])  # bad int
            argvs.append(flat + ["--format", rng.choice(["yaml", "JSON", ""])])  # bad choice
            argvs.append(flat[:at] + ["--=1"] + flat[at:])  # ambiguous: every option
            if "--lambda" in split:
                argvs.append(split + ["--lambda", "-1,0,0,0"])  # an option, not a value
        if command == "verify":
            argvs.append(flat + ["--suite", "every"])
    return argvs


def test_accepted_argument_lists_give_the_same_values():
    argvs = accepted_argvs()
    assert len(argvs) == 2 + 150 * len(cli._COMMANDS)
    forms = {"--opt=value": 0, "prefix": 0, "repeated": 0}
    for argv in argvs:
        code, expected, _ = oracle(argv)
        assert code == 0, argv
        command = expected.pop("command")
        assert cli._parse(argv) == (command, expected), argv
        flags = [t.partition("=")[0] for t in argv[1:] if t.startswith("--")]
        forms["--opt=value"] += any("=" in t for t in argv if t.startswith("--"))
        forms["prefix"] += any(f not in VALUES for f in flags)
        forms["repeated"] += len(set(flags)) < len(flags)
    assert min(forms.values()) > 100, forms


def test_refused_argument_lists_exit_2_with_no_stdout(capsys):
    argvs = refused_argvs()
    assert len(argvs) > 400
    for argv in argvs:
        code, _, _ = oracle(argv)
        assert code == 2, argv
        with pytest.raises(InputError):
            cli._parse(argv)
        assert cli.run(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: "), argv


@pytest.mark.parametrize("argv", HELP_ARGVS)
def test_help_names_every_subcommand(capsys, argv):
    assert oracle(argv)[0] == 0
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: minaff ")
    for command, (_, line, _) in cli._COMMANDS.items():
        assert command in out and line in out


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subcommand_help_names_every_option(capsys, command):
    for argv in subcommand_help_argvs(command):
        assert oracle(argv)[0] == 0
        assert cli.run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: minaff {command} ")
        for name, _, _, line in options(command):
            assert name in out and line in out


@pytest.mark.parametrize("argv", [["--help"], ["char", "--help"]], ids=" ".join)
def test_help_bytes_do_not_depend_on_the_terminal_width(capsys, monkeypatch, argv):
    if argv == ["--help"]:
        named = [(command, line) for command, (_, line, _) in cli._COMMANDS.items()]
    else:
        named = [(name, line) for name, _, _, line in options("char")]
    texts = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert cli.run(argv) == 0
        texts.append(capsys.readouterr().out)
        assert all(name in texts[-1] and line in texts[-1] for name, line in named)
    assert texts[0] == texts[1]


def test_version_prints_what_argparse_printed(capsys):
    code, _, expected = oracle(["--version"])
    assert code == 0 and expected == f"minaff {__version__}\n"
    assert cli.run(["--version"]) == 0
    assert capsys.readouterr().out == expected
    assert cli.run(["--vers"]) == 0
    assert capsys.readouterr().out == expected


def test_double_dash_is_refused(capsys):
    # argparse refuses it here too (no subcommand takes positionals), but
    # how it reads "--" differs between Python versions
    for argv in (["--"], ["char", "--", "--n", "4"], ["char", "--n", "--", "4"]):
        assert cli.run(argv) == 2
        assert capsys.readouterr().out == ""


def test_exact_name_before_prefix_and_ambiguous_prefix(monkeypatch, capsys):
    # no two options of the shipped table share a prefix, so add some
    commands = dict(cli._COMMANDS)
    handler, line, opts = commands["verify"]
    commands["verify"] = (handler, line, opts + (("--seed", int, 0, "random seed"),))
    handler, line, opts = commands["char"]
    commands["char"] = (handler, line, opts + (("--size", int, 0, "size"),))
    monkeypatch.setattr(cli, "_COMMANDS", commands)
    assert cli._parse(["verify", "--n", "4", "--su", "weyl", "--se=3"])[1]["seed"] == 3
    assert cli.run(["verify", "--n", "4", "--s", "weyl"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "ambiguous option: --s could match --suite, --seed" in out.err
    argv = ["char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--si", "7"]
    assert cli._parse(argv)[1] == {
        "n": 4, "lambda": "0,1,0,0", "s": "1", "format": "json", "mu": None, "size": 7
    }


def outcome(parse, argv):
    """What ``parse`` gives for ``argv``: its value, or the refusal."""
    try:
        return parse(argv)
    except InputError as e:
        return "refused", str(e)


def test_canonical_argument_lists_never_reach_the_full_parser(monkeypatch):
    full, calls = cli_extra._parse_full, []
    monkeypatch.setattr(cli_extra, "_parse_full", lambda argv: calls.append(argv) or full(argv))
    argvs = canonical_argvs()
    repeated = sum(len(set(argv[1::2])) < len(argv[1::2]) for argv in argvs)
    assert len(argvs) == 1 + 40 * len(cli._COMMANDS) and repeated > 20
    for argv in argvs:
        assert cli._parse(argv) == full(argv), argv
    assert calls == []


def test_both_parsers_give_the_same_value_or_the_same_refusal():
    argvs = [
        *canonical_argvs(), *accepted_argvs(), *refused_argvs(), *HELP_ARGVS,
        ["--version"], ["--vers"],
        *(argv for command in cli._COMMANDS for argv in subcommand_help_argvs(command)),
    ]
    for argv in argvs:
        assert outcome(cli._parse, argv) == outcome(cli_extra._parse_full, argv), argv
