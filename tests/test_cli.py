import functools
import hashlib
import json
from pathlib import Path

import pytest

from minaff import CharElem, spbranch, verify, weyl
from minaff.cli import run
from _helpers import break_longest_word, run_fresh


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_example(capsys):
    code, out, _ = invoke(
        capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimension"] == 29
    assert len(report["multiplicities"]) == 2
    assert report["multiplicities"][0]["mu"] == [0, 1, 0, 0]
    assert report["multiplicities"][0]["dim"] == 28


def test_xi_example(capsys):
    code, out, _ = invoke(
        capsys, "xi", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["cut"] == 1 and report["lambda_bar"] == 1
    assert len(report["xi"]) == 5
    assert report["xi"][0] == {"finite": [1, 0, 0, 1, 0], "level": 1, "delta": 0}
    assert report["Lambda"] is not None


def test_verify_example(capsys):
    code, out, _ = invoke(capsys, "verify", "--suite", "all", "--n", "4")
    assert code == 0
    assert "passed, 0 failed" in out
    assert all(line.startswith("ok") or "passed" in line for line in out.strip().splitlines())


def test_verify_single_suite(capsys):
    code, out, _ = invoke(
        capsys, "verify", "--suite", "weyl", "--n", "5", "--format", "json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["failed"] == 0 and report["passed"] >= 3


REQUIRED_KEYS = ("n", "s", "lambda", "dimension", "multiplicities", "meta")


def assert_schema(report):
    for key in REQUIRED_KEYS:
        assert key in report
    assert isinstance(report["n"], int)
    assert isinstance(report["lambda"], list)
    assert isinstance(report["dimension"], int)
    for entry in report["multiplicities"]:
        assert set(entry) == {"mu", "m", "dim"}
        assert isinstance(entry["mu"], list) and len(entry["mu"]) == report["n"]
        assert isinstance(entry["m"], int) and isinstance(entry["dim"], int)
    assert set(report["meta"]) == {"tool_version", "elapsed_ms"}


def test_json_reports_match_schema(capsys):
    for cmd in (
        ("char", "--n", "4", "--lambda", "0,0,1,1", "--s", "n"),
        ("decomp", "--n", "4", "--lambda", "1,0,0,0", "--s", "1"),
        ("sam", "--n", "4", "--lambda", "0,0,1,1"),
    ):
        code, out, _ = invoke(capsys, *cmd, "--format", "json")
        assert code == 0
        assert_schema(json.loads(out))


def test_byte_stability(capsys):
    argv = ("char", "--n", "4", "--lambda", "0,1,0,0", "--s", "n-1", "--format", "json")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second
    argv = ("verify", "--suite", "demazure", "--n", "4", "--format", "csv")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--n", "4", "--lambda", "-1,0,0,0", "--s", "1"),
        ("char", "--n", "4", "--lambda", "1,0,1,1", "--s", "1"),  # non-regular
        ("char", "--n", "4", "--lambda", "1,0,0,0", "--s", "2"),
        ("char", "--n", "3", "--lambda", "1,0,0", "--s", "1"),
        ("char", "--n", "4", "--lambda", "1,0,0", "--s", "1"),  # wrong length
        ("char", "--n", "4", "--lambda", "a,b,c,d", "--s", "1"),
        ("sam", "--n", "4", "--lambda", "1,0,0,0", "--s", "n"),
        ("drinfeld", "--n", "4", "--lambda", "1,0,0,0", "--s", "1", "--epsilon", "2"),
    ],
)
def test_invalid_inputs_exit_2_with_no_stdout(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""


def test_unknown_flag_exits_2(capsys):
    code, out, _ = invoke(capsys, "char", "--n", "4", "--frobnicate", "1")
    assert code == 2
    assert out == ""


def test_failed_invariant_exits_3_with_no_stdout(capsys, monkeypatch):
    # a runtime invariant, not an assert: it still fires under python -O
    monkeypatch.setattr(weyl, "is_dominant_key", lambda k: False)
    code, out, err = invoke(capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1")
    assert code == 3
    assert out == ""
    assert "non-dominant factor weight" in err


def test_failed_nesting_check_exits_3_with_no_stdout(capsys, monkeypatch):
    break_longest_word(monkeypatch)
    code, out, err = invoke(capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1")
    assert code == 3
    assert out == ""
    assert "length additivity" in err


def test_failed_symplectic_dimension_check_exits_3_with_no_stdout(capsys, monkeypatch):
    monkeypatch.setattr(spbranch, "sp_branch", lambda p, rank: {(0,) * rank: 1})
    code, out, err = invoke(capsys, "sam", "--n", "4", "--lambda", "0,1,0,0")
    assert code == 3
    assert out == ""
    assert "total dimension" in err


def test_non_regular_message_names_the_exceptional_case(capsys):
    code, _, err = invoke(capsys, "char", "--n", "4", "--lambda", "2,0,1,3", "--s", "1")
    assert code == 2
    assert "fork coordinate" in err


def test_decomp_mu_filter(capsys):
    code, out, _ = invoke(
        capsys,
        "decomp", "--n", "4", "--lambda", "0,1,0,0", "--s", "1",
        "--mu", "0,0,0,0", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["multiplicities"] == [{"mu": [0, 0, 0, 0], "m": 1, "dim": 1}]
    # absent weight reports multiplicity zero
    code, out, _ = invoke(
        capsys,
        "decomp", "--n", "4", "--lambda", "0,1,0,0", "--s", "1",
        "--mu", "1,0,0,0", "--format", "json",
    )
    assert json.loads(out)["multiplicities"][0]["m"] == 0


def test_sam_agrees_with_char(capsys):
    for lam in ("0,1,0,0", "0,0,1,1"):
        _, out1, _ = invoke(capsys, "char", "--n", "4", "--lambda", lam, "--s", "1")
        _, out2, _ = invoke(capsys, "sam", "--n", "4", "--lambda", lam)
        a, b = json.loads(out1), json.loads(out2)
        assert a["multiplicities"] == b["multiplicities"]
        assert a["dimension"] == b["dimension"]


def test_csv_and_pretty_formats(capsys):
    code, out, _ = invoke(
        capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mu,m,dim"
    assert len(lines) == 3
    code, out, _ = invoke(
        capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--format", "pretty"
    )
    assert code == 0 and "dimension = 29" in out
    code, out, _ = invoke(
        capsys, "xi", "--n", "4", "--lambda", "0,0,1,2", "--s", "1", "--format", "pretty"
    )
    assert code == 0 and "m = 4  m' = 3" in out


def test_drinfeld_report(capsys):
    code, out, _ = invoke(
        capsys,
        "drinfeld", "--n", "4", "--lambda", "1,1,0,0", "--s", "1",
        "--epsilon", "+", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert {"i": 2, "m": 1, "c": 3} in report["factors"]


def test_benchmark_cases_print_their_recorded_bytes(capsys, monkeypatch):
    # the benchmark checks every case's stdout against these digests
    monkeypatch.delenv("MINAFF_TIMING", raising=False)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())["cli"]
    assert len(expected) == 12
    for key, digest in expected.items():
        code, out, _ = invoke(capsys, *key.split(" "))
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


def test_word_independence_check_catches_an_order_sensitive_operator(monkeypatch):
    # scales by a position-weighted letter sum, which every commutation and
    # braid move changes
    def order_sensitive(self, w):
        return (1 + sum(i * a for i, a in enumerate(w.word, 1))) * self

    checks = []
    verify._suite_demazure(4, checks)
    assert dict(checks)["demazure.reduced_word_application"]
    monkeypatch.setattr(CharElem, "demazure_word", order_sensitive)
    checks = []
    verify._suite_demazure(4, checks)
    assert not dict(checks)["demazure.reduced_word_application"]


def test_other_reduced_word_commutes_exactly_the_commuting_nodes():
    # commutation read off the diagram against the group: a and b commute
    # exactly when the words ab and ba give the same element
    for n in (4, 5, 6):
        for a in range(n + 1):
            assert verify._other_reduced_word(n, (a, a)) is None
            for b in range(n + 1):
                if a == b:
                    continue
                ab, ba = weyl.from_word(n, (a, b)), weyl.from_word(n, (b, a))
                other = verify._other_reduced_word(n, (a, b))
                if weyl.same_element(ab, ba):
                    assert other == (b, a), (n, a, b)
                else:
                    assert other is None, (n, a, b)
                    braid = verify._other_reduced_word(n, (a, b, a))
                    assert braid == (b, a, b)
                    assert weyl.same_element(weyl.from_word(n, (a, b, a)), weyl.from_word(n, braid))


# Which modules a fresh process loads.  The ast scan of ``minaff_imports``
# cannot tell an import inside a handler from one at module level, so these
# read ``sys.modules`` of a process that ran one command.

MODULES_AFTER_RUN = """
import sys
from minaff import cli
code = cli.run(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded))
sys.exit(code)
"""

CLI_BASE = {"minaff", "minaff.cli", "minaff.errors"}
SAM = ("sam", "--n", "5", "--lambda", "1,1,1,1,1")
CHAR = ("char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1")
SUBCOMMANDS = (
    ("--version",),
    SAM,
    CHAR,
    ("decomp", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--mu", "0,0,0,0"),
    ("xi", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n"),
    ("drinfeld", "--n", "4", "--lambda", "1,1,0,0", "--s", "1"),
    ("verify", "--n", "4", "--suite", "all"),
)


@functools.lru_cache(maxsize=None)
def modules_after_run(*argv):
    proc = run_fresh("-c", MODULES_AFTER_RUN, *argv)
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout.splitlines()[-1]))


def minaff_modules(modules):
    return {m for m in modules if m == "minaff" or m.startswith("minaff.")}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_no_subcommand_loads_dataclasses(argv):
    assert "dataclasses" not in modules_after_run(*argv)


def test_version_loads_only_the_cli_and_what_every_subcommand_needs():
    modules = modules_after_run("--version")
    assert minaff_modules(modules) == CLI_BASE
    assert not {"json", "csv"} & modules


@pytest.mark.parametrize(
    "argv",
    [*SUBCOMMANDS, ("--help",), ("char", "--help")],
    ids=[argv[0] for argv in SUBCOMMANDS] + ["--help", "char --help"],
)
def test_no_subcommand_loads_argparse(argv):
    assert not {"argparse", "gettext", "locale"} & modules_after_run(*argv)


def test_sam_adds_only_the_symplectic_pipeline():
    base = minaff_modules(modules_after_run("--version"))
    modules = minaff_modules(modules_after_run(*SAM))
    assert modules - base == {"minaff.cartan", "minaff.spbranch"}
    demazure_side = {"minaff.weyl", "minaff.polyring", "minaff.affinization", "minaff.decomp"}
    assert not modules & demazure_side


def test_char_loads_no_symplectic_pipeline():
    modules = minaff_modules(modules_after_run(*CHAR))
    assert "minaff.spbranch" not in modules
    assert "minaff.affinization" in modules


@pytest.mark.parametrize("argv", SUBCOMMANDS[2:4], ids=lambda argv: argv[0])
def test_table_subcommands_load_no_greedy_decomposition(argv):
    # the straightened table needs neither the Freudenthal recursion nor
    # the greedy peel
    assert "minaff.decomp" not in modules_after_run(*argv)


def test_import_minaff_loads_no_submodule():
    proc = run_fresh("-c", "import json, sys, minaff; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert minaff_modules(json.loads(proc.stdout)) == {"minaff"}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_only_verify_loads_the_suites(argv):
    assert ("minaff.verify" in modules_after_run(*argv)) == (argv[0] == "verify")


@pytest.mark.parametrize("argv", SUBCOMMANDS[:4], ids=lambda argv: argv[0])
def test_table_subcommands_build_no_fraction(argv):
    # the Demazure path runs on integer keys; only reports of affine
    # weights (xi, verify) read a delta as a Fraction
    assert "fractions" not in modules_after_run(*argv)
