import functools
import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minaff import polyring, spbranch, verify, weyl
from minaff.cli import _json_text, run
from minaff.cli_extra import _delta
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
    assert report["meta"]["elapsed_ms"] == 0  # byte-stable: no clock is read


def test_json_reports_match_schema(capsys):
    for cmd in (
        ("char", "--n", "4", "--lambda", "0,0,1,1", "--s", "n"),
        ("decomp", "--n", "4", "--lambda", "1,0,0,0", "--s", "1"),
        ("sam", "--n", "4", "--lambda", "0,0,1,1"),
    ):
        code, out, _ = invoke(capsys, *cmd, "--format", "json")
        assert code == 0
        assert_schema(json.loads(out))


# Every JSON report the command line writes; each must be exactly what
# ``json.dumps(report, indent=2)`` writes.
JSON_REPORTS = (
    ("char", "--n", "5", "--lambda", "1,0,1,1,2", "--s", "1"),
    ("decomp", "--n", "5", "--lambda", "0,1,1,1,1", "--s", "n"),
    ("decomp", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--mu", "0,0,0,0"),
    ("decomp", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--mu", "1,0,0,0"),
    ("sam", "--n", "5", "--lambda", "1,1,1,1,1"),
    *(("xi", "--n", "5", "--lambda", "1,1,0,2,0", "--s", s) for s in ("1", "n", "n-1")),
    *(("drinfeld", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n", "--epsilon", e)
      for e in ("+", "-")),
    *(("verify", "--n", "4", "--suite", suite)
      for suite in ("demazure", "weyl", "pipeline", "all")),
)


@pytest.mark.parametrize("argv", JSON_REPORTS, ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_json_reports_are_what_json_dumps_writes(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


REPORT_TEXT = st.text(
    alphabet=st.sampled_from([chr(c) for c in range(32, 127) if chr(c) not in '"\\']),
    max_size=6,
)
REPORT_VALUES = st.recursive(
    st.none() | st.integers() | st.integers(min_value=-(2**200), max_value=2**200) | REPORT_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(REPORT_TEXT, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(REPORT_VALUES)
def test_json_text_matches_json_dumps_on_report_shaped_values(value):
    assert _json_text(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value",
    [True, 1.5, Fraction(1, 2), (1, 2), 'a"b', "a\\b", "caf\u00e9", "a\nb", "\x7f",
     [0, False], {"k": 0.5}, {1: 2}, {'"': 1}],
    ids=repr,
)
def test_json_text_refuses_what_it_would_have_to_guess(value):
    with pytest.raises((TypeError, ValueError)):
        _json_text(value)


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
    monkeypatch.setattr(weyl, "is_dominant", lambda k: False)
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


def pipeline_report(capsys):
    """Exit code and {check: status} of ``verify --n 4 --suite pipeline``."""
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "pipeline")
    *lines, summary = out.splitlines()
    return code, {line[5:]: line[:4].strip() for line in lines}, summary


def test_pipeline_crown_fails_on_a_symplectic_table_that_differs(capsys, monkeypatch):
    real = spbranch.sam_table

    def one_more_copy_of_the_top(n, lam):
        table = real(n, lam)
        table[lam] += 1
        return table

    monkeypatch.setattr(spbranch, "sam_table", one_more_copy_of_the_top)
    code, statuses, summary = pipeline_report(capsys)
    assert code == 3
    assert summary == "4 passed, 4 failed"
    for name, status in statuses.items():
        assert status == ("FAIL" if name.startswith("pipeline.crown_") else "ok"), name


def test_pipeline_straighten_fails_on_a_character_of_another_mass(capsys, monkeypatch):
    real = polyring.character

    def one_more_weight(n, lam, s):
        ch = real(n, lam, s)
        zero = (0,) * n
        ch[zero] = ch.get(zero, 0) + 1
        return ch

    monkeypatch.setattr(polyring, "character", one_more_weight)
    code, statuses, summary = pipeline_report(capsys)
    assert code == 3
    assert summary == "4 passed, 4 failed"
    for name, status in statuses.items():
        assert status == ("FAIL" if name.startswith("pipeline.straighten_") else "ok"), name


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


@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1"),
        ("sam", "--n", "4", "--lambda", "2,1,1,1"),
    ],
    ids=lambda argv: argv[0],
)
def test_traced_benchmark_worker_prints_what_the_cli_prints(argv):
    # the traced benchmark run imports minaff's modules and wraps functions
    # by name, so a module or a name it needs that is gone fails every
    # traced sample
    worker = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
    traced = run_fresh(str(worker), *argv)
    assert traced.returncode == 0, traced.stderr
    record = json.loads(traced.stdout)
    assert record["code"] == 0
    assert record["stdout"] == run_fresh("-m", "minaff", *argv).stdout


def test_benchmark_cases_print_their_recorded_bytes(capsys):
    # the benchmark checks every case's stdout against these digests
    path = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())["cli"]
    assert len(expected) == 12
    for key, digest in expected.items():
        code, out, _ = invoke(capsys, *key.split(" "))
        assert code == 0, key
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key


# sha256 of the reports that print affine weights (xi; s = 1 prints a delta
# of 1/2) and of the verify suites, which draw random elements: the bytes
# stay fixed whatever the weights are stored as
XI = ("xi", "--n", "5", "--lambda", "1,1,0,2,0")
VERIFY = ("verify", "--n", "4", "--suite", "all")
PINNED_BYTES = {
    (*XI, "--s", "1", "--format", "json"): "1b3657d650ab95656932c0371894f6ff649e0b102a8752fdef871bcd8a61bbc1",
    (*XI, "--s", "1", "--format", "csv"): "e882c72955e2447177c9dbcd5be88a00c18e63c445bf403e193e4f9db654a81b",
    (*XI, "--s", "1", "--format", "pretty"): "e38a8bf6a27fe5ff4d7e4adebd7a5db2666e826bf0e0ead3f0550508ed1c0401",
    (*XI, "--s", "n", "--format", "json"): "24377e43553762418a0ef230609ade02e6c3673e134288104398b19a75097f4f",
    (*XI, "--s", "n", "--format", "csv"): "92a357dc14b5aa433685bf944bb83ddbca405cf6e3b68c71320b5e1610ad500f",
    (*XI, "--s", "n", "--format", "pretty"): "c423e5a912e08521a66a69f55253cd693b2554b30238ea568287c928e292ebb0",
    (*XI, "--s", "n-1", "--format", "json"): "9b7a0370716574c90b7b143bfff2fd1d5352738b1baf0f5e6a4372d72d1cd7e6",
    (*XI, "--s", "n-1", "--format", "csv"): "e087205d940d390fc6c9af8bd451ab4791812e8bc66f38a7faa15ceae46b627a",
    (*XI, "--s", "n-1", "--format", "pretty"): "869cb03a1d72889be8dfc8dfa0870e363d0bf37aa0fedf5f79f8640fa9db7f96",
    (*VERIFY, "--format", "json"): "ead57ed81b8a403634aaec5f2c108ec4b8dc4108da2fb3f0c911e44ee54c50c8",
    (*VERIFY, "--format", "csv"): "cac4163b8fba21ede9d05210bcc39b47ccc1d41231ef825497d1f55d8e0d1686",
    (*VERIFY, "--format", "pretty"): "175d625760f4b72c8fe24bd0fc9da0c84d5834aac75ade26eec583369539cd1a",
}


@pytest.mark.parametrize("argv", PINNED_BYTES, ids=" ".join)
def test_weight_and_verify_reports_print_their_pinned_bytes(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_BYTES[argv]
    if argv[-3:] == ("1", "--format", "pretty"):
        assert "Lambda_1 = 0,0,0,0,0  level 1  delta 1/2\n" in out


def fraction_json(q):
    """A Fraction as a JSON report value: an int when whole, else "p/q"."""
    return int(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@given(st.integers(-60, 60))
def test_delta_of_a_key_prints_as_the_fraction(d2):
    value = _delta(d2)
    assert str(value) == str(Fraction(d2, 2))
    assert value == fraction_json(Fraction(d2, 2))
    assert type(value) is type(fraction_json(Fraction(d2, 2)))


def test_word_independence_check_catches_an_order_sensitive_operator(monkeypatch):
    # scales by a position-weighted letter sum, which every commutation and
    # braid move changes
    def order_sensitive(w, terms):
        scale = 1 + sum(i * a for i, a in enumerate(w.word, 1))
        return {k: scale * c for k, c in terms.items()}

    # the letters in the wrong order: only the word worked by hand sees it,
    # since reversing both reduced words gives the inverse element on both
    # sides of the comparison
    real = weyl.demazure_word_terms

    def first_letter_first(w, terms):
        return real(weyl.ExtendedWeylWord(w.n, w.tau, w.word[::-1]), terms)

    for n in (4, 5, 6):
        checks = []
        verify._suite_demazure(n, checks)
        assert dict(checks)["demazure.reduced_word_application"], n
        for operator in (order_sensitive, first_letter_first):
            monkeypatch.setattr(weyl, "demazure_word_terms", operator)
            checks = []
            verify._suite_demazure(n, checks)
            assert not dict(checks)["demazure.reduced_word_application"], (n, operator)
            monkeypatch.undo()


def test_word_independence_check_fails_on_a_word_that_is_not_reduced(capsys, monkeypatch):
    # the word operator takes its words as reduced, so the check proves it:
    # a cancelling pair in front keeps the element and breaks reducedness
    real = verify._other_reduced_word

    def cancelling_pair_in_front(n, word):
        other = real(n, word)
        return None if other is None else other[:1] * 2 + other

    monkeypatch.setattr(verify, "_other_reduced_word", cancelling_pair_in_front)
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "demazure")
    assert code == 3
    assert "FAIL demazure.reduced_word_application" in out.splitlines()
    assert out.endswith("2 passed, 1 failed\n")


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
REFUSED = ("char", "--n", "4", "--frobnicate", "1")


@functools.lru_cache(maxsize=None)
def modules_after_run(*argv):
    proc = run_fresh("-c", MODULES_AFTER_RUN, *argv)
    assert proc.returncode == (2 if argv == REFUSED else 0), proc.stderr
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
def test_table_subcommands_load_exactly_the_table_path(argv):
    # the straightened table needs neither the Freudenthal recursion nor
    # the greedy peel, and it stops before the longest-element pass, so the
    # full character (polyring) is not compiled either
    modules = minaff_modules(modules_after_run(*argv))
    assert modules == CLI_BASE | {"minaff.cartan", "minaff.weyl", "minaff.affinization"}


def test_import_minaff_loads_no_submodule():
    proc = run_fresh("-c", "import json, sys, minaff; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert minaff_modules(json.loads(proc.stdout)) == {"minaff"}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_no_subcommand_loads_json(argv):
    # reports are written by cli._json_text
    assert "json" not in modules_after_run(*argv)


def test_only_help_refusals_xi_and_drinfeld_load_the_extra_cli():
    argvs = (*SUBCOMMANDS, ("--help",), ("char", "--help"), REFUSED)
    loading = {argv for argv in argvs if "minaff.cli_extra" in modules_after_run(*argv)}
    assert loading == {SUBCOMMANDS[4], SUBCOMMANDS[5], ("--help",), ("char", "--help"), REFUSED}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_only_verify_loads_the_suites(argv):
    assert ("minaff.verify" in modules_after_run(*argv)) == (argv[0] == "verify")


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_no_subcommand_loads_the_affinization_order(argv):
    # verify checks the straightened tables against sam_table and the mass
    # of the full character, with no greedy peel
    assert "minaff.decomp" not in modules_after_run(*argv)


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_table_subcommands_build_no_fraction(argv):
    # every weight is an integer key, and the xi report prints delta from
    # its doubled slot
    assert "fractions" not in modules_after_run(*argv)
