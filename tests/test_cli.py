import errno
import functools
import hashlib
import json
import os
import subprocess
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from minaff import affinization, cli, polyring, spbranch, verify, weyl
from minaff.cli import _json_text, run
from minaff.cli_extra import _delta
from _helpers import (
    benchmark_lines, fresh_argv, fresh_env, run_fresh, source_mutant, uncalled_code
)
from _weyl_oracle import from_word, same_element


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


def level_zero(n, j):
    """``affinization._level_one`` broken: the weight at level 0, so every
    nonzero factor weight built from it has no dominant point."""
    return affinization._unit(n, j) + (0, 0)


def test_failed_invariant_exits_3_with_no_stdout(capsys, monkeypatch):
    # a runtime invariant, not an assert: it still fires under python -O
    monkeypatch.setattr(affinization, "_level_one", level_zero)
    code, out, err = invoke(capsys, "char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1")
    assert code == 3
    assert out == ""
    assert "has no dominant point" in err


def test_a_fold_that_breaks_the_norm_exits_3_with_no_stdout(capsys, monkeypatch):
    # the finite fold moved off the orbit: one doubled coordinate raised by
    # one changes the norm by an odd amount, so 2 delta comes out a
    # fraction, a runtime invariant that python -O keeps
    real = weyl._dominantize

    def off_by_one(d):
        r = real(d)
        return (r[0] + 1,) + r[1:]

    monkeypatch.setattr(weyl, "_dominantize", off_by_one)
    for s in ("1", "n"):
        code, out, err = invoke(capsys, "char", "--n", "5", "--lambda", "0,1,1,1,1", "--s", s)
        assert (code, out) == (3, "")
        assert "2 delta off the integers" in err


# A fresh process that runs the table commands twice: once as they come,
# reporting whether the full character or the suites (minaff.polyring,
# minaff.verify) were ever loaded, then with every function of both made
# to raise, so no cache of an earlier call can hide a walk, a reflection,
# the longest word or a word operation.
WORD_OPERATIONS_OFF = """
import contextlib, io, json, sys
from minaff import cli

def run_all():
    results = []
    for argv in json.loads(sys.argv[1]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        results.append([code, out.getvalue(), err.getvalue()])
    return results

first = run_all()
loaded = {"minaff.polyring", "minaff.verify"} & set(sys.modules)
from minaff import polyring, verify
def off(*args, **kwargs):
    raise RuntimeError("a table process called a word operation")
stubbed = []
for module in (polyring, verify):
    for name, value in list(vars(module).items()):
        if getattr(value, "__module__", None) == module.__name__ and callable(value):
            setattr(module, name, off)
            stubbed.append(module.__name__ + "." + name)
print(json.dumps({"loaded": sorted(loaded), "first": first, "off": run_all(), "stubbed": stubbed}))
"""


def test_char_and_decomp_reduce_no_word(capsys):
    # the nesting proof lives in verify and the tests: a table process
    # reflects no key, builds no w0, counts no length and composes no
    # words, in every family; the rotated factor weights are closed forms
    # and the rotation passes run the kernel on the rotation's letters.
    # The full character's module holds w0's letters, verify the
    # reflection and the word operations
    cases = [
        [command, "--n", "5", "--lambda", "0,1,1,1,1", "--s", s, "--format", "csv"]
        for command in ("char", "decomp")
        for s in ("1", "n", "n-1")
    ]
    expected = [list(invoke(capsys, *argv)) for argv in cases]
    assert all(code == 0 and out for code, out, _ in expected)
    proc = run_fresh("-c", WORD_OPERATIONS_OFF, json.dumps(cases))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["first"] == report["off"] == expected
    word_operations = {
        "minaff.polyring._w0_letters", "minaff.polyring.character", "minaff.verify.reflect_key",
        "minaff.verify._length", "minaff.verify._compose", "minaff.verify._act",
    }
    assert word_operations <= set(report["stubbed"])
    assert not hasattr(weyl, "_walk_up") and not hasattr(weyl, "reflect_key")


def test_verify_fails_length_additivity_when_the_nesting_proof_fails(capsys, monkeypatch):
    real_w0, real_sigma = polyring._w0_letters, weyl.sigma_pair
    monkeypatch.setattr(polyring, "_w0_letters", lambda n: real_w0(n) + (1,))
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "weyl")
    assert (code, out.splitlines()) == (3, [
        "ok   weyl.rotation_table",
        "FAIL weyl.length_additivity",  # the composite comes out short
        "ok   weyl.form_invariance",
        "2 passed, 1 failed",
    ])
    monkeypatch.setattr(polyring, "_w0_letters", real_w0)
    monkeypatch.setattr(weyl, "sigma_pair", lambda n: (real_sigma(n)[0], (1,) + real_sigma(n)[1]))
    code, out, _ = invoke(capsys, "verify", "--n", "4", "--suite", "weyl")
    assert code == 3 and "FAIL weyl.length_additivity" in out  # the rotation word is not reduced
    monkeypatch.undo()
    assert invoke(capsys, "verify", "--n", "4", "--suite", "weyl")[0] == 0


def test_failed_symplectic_dimension_check_exits_3_with_no_stdout(capsys, monkeypatch):
    monkeypatch.setattr(spbranch, "_sp_branch", lambda p, rank: {(0,) * rank: 1})
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


def test_both_pipelines_refuse_an_irregular_weight_with_one_text(capsys):
    lam = ("--n", "5", "--lambda", "2,1,0,1,1")
    refusals = {invoke(capsys, *argv) for argv in (("sam", *lam), ("char", *lam, "--s", "1"))}
    assert refusals == {(
        2, "", "error: weight (2, 1, 0, 1, 1) is outside the regular classification "
        "(full spread support with zero fork coordinate)\n"
    )}


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


@pytest.mark.parametrize(
    "mu, message",
    [("x", "is not a comma-separated"), ("1,2", "has 2 entries"), ("1,0,-1,0", "is not dominant")],
    ids=["malformed", "short", "non-dominant"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ("char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1"),
        ("decomp", "--n", "4", "--lambda", "1,1,1,1", "--s", "n"),
        ("sam", "--n", "4", "--lambda", "2,1,1,1"),
    ],
    ids=lambda argv: argv[0],
)
def test_a_bad_mu_is_refused_before_any_table_is_built(capsys, monkeypatch, argv, mu, message):
    from minaff import affinization

    def build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(affinization, "_pre_w0", build)
    monkeypatch.setattr(spbranch, "_sp_branch", build)
    code, out, err = invoke(capsys, *argv, "--mu", mu)
    assert code == 2 and out == "", err
    assert err.startswith("error: ") and message in err, err


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


# cli holds only what a canonical table command line runs: the benchmark's
# 12 table lines and --version call every function it defines but these, by
# qualified name.  The full parser and the CSV and aligned-text writers
# live in cli_extra.
CLI_UNCALLED = {
    "main",  # the console entry point; these lines run through cli.run in-process
    "_watched",  # read by main alone
    "_watched.<locals>.<genexpr>",  # part of _watched
}


def test_a_table_process_runs_every_function_of_the_cli():
    argvs = [*benchmark_lines(), ["--version"]]
    assert len(argvs) == 13
    assert uncalled_code(cli, argvs) == CLI_UNCALLED


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
# and of the CSV and aligned-text forms of the drinfeld and table reports,
# which the command line builds from the dict it writes as JSON
DRINFELD = ("drinfeld", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n")
TABLE = ("--n", "5", "--lambda", "1,0,1,1,2")
MU = ("--mu", "1,0,1,0,1")
PINNED_BYTES |= {
    (*DRINFELD, "--epsilon", "+", "--format", "csv"): "33584fd887c66571bacabcb8627c7ad9a206067db66de6ee63edfa32ae40b5fa",
    (*DRINFELD, "--epsilon", "+", "--format", "pretty"): "307aff741b743f1efb094d23b1432d5ab59af0c3e564e952e938fc0d12297987",
    (*DRINFELD, "--epsilon", "-", "--format", "csv"): "393de61f80c6fba9ff7f8f2185ee200396a2bf4d60464383e818514483699271",
    (*DRINFELD, "--epsilon", "-", "--format", "pretty"): "2c639d35542ec354111a14b69d51b6c7bca7d21f227ea31f82cd37f2e320610d",
    ("drinfeld", "--n", "4", "--lambda", "0,0,0,0", "--s", "1", "--format", "pretty"): "4192df0bf9dc2ad9975f71ae43c49ed8ea2e63c5fddc0a7e89019f1ad56cd39b",
    ("char", *TABLE, "--s", "1", "--format", "csv"): "aa4e8abf7b1d68513f156fb964ee93061fb00bdec7cef8a4734cb819c54d059b",
    ("char", *TABLE, "--s", "1", "--format", "pretty"): "ba5b017ff6660a7e145bb414bbe51895db5010852e95679e0efe18b2e95e0282",
    ("char", *TABLE, "--s", "1", *MU, "--format", "csv"): "526284113d12768808ad43afbffb43169dcae84a4e8b58943a8ab83531bc6fb9",
    ("char", *TABLE, "--s", "1", *MU, "--format", "pretty"): "8046613d971a93cbd0ec09f30fad13c8075b038c55f4056448c780c35f5e50be",
    ("sam", *TABLE, "--format", "pretty"): "ba5b017ff6660a7e145bb414bbe51895db5010852e95679e0efe18b2e95e0282",
}


@pytest.mark.parametrize("argv", PINNED_BYTES, ids=" ".join)
def test_weight_and_verify_reports_print_their_pinned_bytes(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_BYTES[argv]
    if argv[0] == "xi" and argv[-3:] == ("1", "--format", "pretty"):
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
    def order_sensitive(n, letters, terms):
        scale = 1 + sum(i * a for i, a in enumerate(letters, 1))
        return {k: scale * c for k, c in terms.items()}

    # the letters in the wrong order: only the word worked by hand sees it,
    # since reversing both reduced words gives the inverse element on both
    # sides of the comparison
    real = weyl.demazure_letters

    def first_letter_first(n, letters, terms):
        return real(n, letters[::-1], terms)

    for n in (4, 5, 6):
        checks = []
        verify._suite_demazure(n, checks)
        assert dict(checks)["demazure.reduced_word_application"], n
        for operator in (order_sensitive, first_letter_first):
            monkeypatch.setattr(weyl, "demazure_letters", operator)
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


@pytest.mark.parametrize(
    "old, new, n, failing",
    [
        # a negative string one key too long: at rank 4 the table path never
        # meets a negative pairing, so only the full character breaks
        ("range(m + 1, 0)", "range(m, 0)", "4", "pipeline.straighten_"),
        # from rank 5 on, the crown_ check without a straighten_ twin meets
        # negative pairings, so the table breaks too
        ("range(m + 1, 0)", "range(m, 0)", "5", "pipeline.crown_"),
        ("range(m + 1, 0)", "range(m, 0)", "6", "pipeline.crown_"),
        # a positive string one key short: multiplicity_table refuses its
        # own table, so neither check of a weight can finish
        ("(range(m + 1), c)", "(range(m), c)", "4", "pipeline.crown_"),
    ],
    ids=["range(m, 0)", "range(m, 0) at rank 5", "range(m, 0) at rank 6", "range(m)"],
)
def test_a_broken_kernel_fails_its_checks_and_keeps_every_line(
    capsys, monkeypatch, old, new, n, failing
):
    argv = ("verify", "--n", n, "--suite", "all")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    names = [line[5:] for line in out.splitlines()[:-1]]
    monkeypatch.setattr(weyl, "_demazure_terms", source_mutant(weyl, "_demazure_terms", old, new))
    code, out, err = invoke(capsys, *argv)
    assert code == 3 and err == ""
    lines = out.splitlines()[:-1]
    assert [line[5:] for line in lines] == names
    assert any(line.startswith("FAIL " + failing) for line in lines)


def test_word_independence_check_fails_on_a_reduction_to_another_element(monkeypatch):
    # a reduced word of the same length but another element: its last
    # letter changed to one that keeps it reduced.  Comparing lengths or
    # reducedness would pass it; the image of rho-hat does not
    real = verify._other_reduced_word

    def another_element(n, word):
        other = real(n, word)
        if other is None:
            return None
        tau = verify._identity_tau(n)
        for c in range(n + 1):
            moved = other[:-1] + (c,)
            if c != other[-1] and verify._is_reduced(n, (tau, moved)):
                return moved
        return other

    monkeypatch.setattr(verify, "_other_reduced_word", another_element)
    for n in (4, 5, 6):
        checks = []
        verify._suite_demazure(n, checks)
        assert not dict(checks)["demazure.reduced_word_application"], n


def test_other_reduced_word_commutes_exactly_the_commuting_nodes():
    # commutation read off the diagram against the group: a and b commute
    # exactly when the words ab and ba give the same element
    for n in (4, 5, 6):
        for a in range(n + 1):
            assert verify._other_reduced_word(n, (a, a)) is None
            for b in range(n + 1):
                if a == b:
                    continue
                ab, ba = from_word(n, (a, b)), from_word(n, (b, a))
                other = verify._other_reduced_word(n, (a, b))
                if same_element(ab, ba):
                    assert other == (b, a), (n, a, b)
                else:
                    assert other is None, (n, a, b)
                    braid = verify._other_reduced_word(n, (a, b, a))
                    assert braid == (b, a, b)
                    assert same_element(from_word(n, (a, b, a)), from_word(n, braid))


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

CLI_BASE = {"minaff", "minaff.cli"}
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
HELP = (("--help",), ("char", "--help"))
SPELLED = ("char", "--n=4", "--lam", "1,1,1,1", "--s", "1")  # read by the full parser
JSON_VERIFY = (("verify", "--n", "4", "--suite", "weyl", "--format", "json"),)
TEXT_TABLES = ((*CHAR, "--format", "csv"), (*SAM, "--format", "pretty"))


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
    [*SUBCOMMANDS, *HELP, REFUSED, SPELLED],
    ids=[argv[0] for argv in SUBCOMMANDS] + ["--help", "char --help", "refused", "spelled"],
)
def test_no_subcommand_loads_argparse(argv):
    # the full parser is argparse, which brings gettext and locale; only
    # help, a refusal and a spelling other than the canonical one reach it
    parser = {"argparse", "gettext", "locale"}
    assert parser & modules_after_run(*argv) == (set() if argv in SUBCOMMANDS else parser)


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


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_only_verify_loads_the_full_character(argv):
    # the table path runs the key kernel of weyl alone; the longest word's
    # closed-form letters live with the full character, which only verify's
    # suites load, and the simple reflection lives in verify itself
    assert not hasattr(polyring, "reflect_key") and callable(verify.reflect_key)
    assert ("minaff.polyring" in modules_after_run(*argv)) == (argv[0] == "verify")


def test_verify_loads_both_pipelines_and_the_full_character():
    # verify runs on the key kernel of weyl and its (prefix, letters) pairs;
    # the longest word's letters come with the full character, and the
    # aligned text of its report with the extra cli
    modules = minaff_modules(modules_after_run(*SUBCOMMANDS[-1]))
    assert modules == CLI_BASE | {
        "minaff.cartan", "minaff.weyl", "minaff.affinization",
        "minaff.polyring", "minaff.spbranch", "minaff.verify", "minaff.cli_extra",
    }


def test_import_minaff_loads_no_submodule():
    proc = run_fresh("-c", "import json, sys, minaff; print(json.dumps(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert minaff_modules(json.loads(proc.stdout)) == {"minaff"}


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_no_subcommand_loads_json(argv):
    # reports are written by cli._json_text
    assert "json" not in modules_after_run(*argv)


def test_only_help_refusals_xi_drinfeld_and_text_reports_load_the_extra_cli():
    # and an accepted spelling other than the canonical one, which the full
    # parser reads; cli writes every JSON report, cli_extra every CSV and
    # aligned-text one, verify's default among them
    argvs = (*SUBCOMMANDS, *HELP, REFUSED, SPELLED, *JSON_VERIFY, *TEXT_TABLES)
    loading = {argv for argv in argvs if "minaff.cli_extra" in modules_after_run(*argv)}
    assert loading == {*SUBCOMMANDS[4:], *HELP, REFUSED, SPELLED, *TEXT_TABLES}


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


# How a process ends.  ``cli.main`` runs the atexit handlers, flushes
# standard output and standard error, and exits hard, skipping the teardown
# of what start-up and the run left behind; ``__main__`` and the console
# script both end through it.  A process that a profiler or a tracer watches
# exits the normal way.  The runner registers an atexit hook on each stream
# and keeps an object in its globals whose finalizer reports the teardown.

EXIT_PATH = """
import atexit, functools, os, runpy, sys

class Sentinel:
    # a partial, not a function of this module, so no reference cycle
    # holds these globals and the sentinel goes as soon as they do
    __del__ = staticmethod(functools.partial(os.write, 2, b"teardown\\n"))

_sentinel = Sentinel()
# no newline, so only the final flush of each stream writes the hook's text
atexit.register(print, "atexit hook", end="")
atexit.register(print, "atexit hook", end="", file=sys.stderr)
if sys.argv[1] == "--trace":
    del sys.argv[1]
    sys.settrace(lambda frame, event, arg: None)
if sys.argv[1] == "--break-level":
    del sys.argv[1]
    from minaff import affinization
    affinization._level_one = lambda n, j: affinization._unit(n, j) + (0, 0)
runpy.run_module("minaff", run_name="__main__", alter_sys=True)
"""
# a 449,402-byte report, past any stdout buffer
BIG_SAM = ("sam", "--n", "6", "--lambda", "3,3,3,3,3,3")


def stdout_env(unbuffered):
    """``fresh_env()``, with ``PYTHONUNBUFFERED`` set or not."""
    env = fresh_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def run_fresh_env(args, unbuffered, **kwargs):
    return subprocess.run(fresh_argv(*args), env=stdout_env(unbuffered), timeout=300, **kwargs)


@pytest.mark.parametrize(
    "broken, argv, code, unbuffered",
    [
        (False, CHAR, 0, False),
        (False, REFUSED, 2, False),
        (True, CHAR, 3, False),
        (False, BIG_SAM, 0, False),
        (False, BIG_SAM, 0, True),
    ],
    ids=["char", "refused", "verification failure", "large report", "large report unbuffered"],
)
def test_a_process_exits_hard_after_its_atexit_hooks_and_prints_what_run_prints(
    capsys, monkeypatch, broken, argv, code, unbuffered
):
    if broken:
        monkeypatch.setattr(affinization, "_level_one", level_zero)
    in_process, out, err = invoke(capsys, *argv)
    assert in_process == code
    args = ("-c", EXIT_PATH, *["--break-level"] * broken, *argv)
    proc = run_fresh_env(args, unbuffered, capture_output=True, text=True)
    assert proc.returncode == code
    # the atexit hooks still ran, after everything the command wrote, the
    # streams were flushed, and no object was torn down
    assert proc.stdout == out + "atexit hook"
    assert proc.stderr == err + "atexit hook"


def test_a_traced_process_exits_the_normal_way():
    proc = run_fresh("-c", EXIT_PATH, "--trace", *CHAR)
    assert proc.returncode == 0
    assert proc.stderr == "atexit hookteardown\n"


def test_a_profiled_process_prints_its_report_and_then_the_profile(capsys):
    # on 3.12 and later cProfile profiles through sys.monitoring, with no
    # profile function set
    _, out, _ = invoke(capsys, *CHAR)
    proc = run_fresh("-m", "cProfile", "-m", "minaff", *CHAR)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(out)
    assert "function calls" in proc.stdout[len(out) :]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [BIG_SAM, CHAR], ids=["in the report", "at the flush"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_device_ends_the_process_with_status_1_and_one_line(argv, unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_fresh_env(
            ("-m", "minaff", *argv), unbuffered, stdout=full, stderr=subprocess.PIPE, text=True
        )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write the report: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("argv", [CHAR, REFUSED], ids=["char", "refused"])
def test_a_closed_standard_output_ends_the_process_with_status_1_and_one_line(argv):
    # started with file descriptor 1 closed, sys.stdout is None; the line
    # comes before any work, so a refused command line exits 1, not 2
    script = 'exec "$@" >&-'
    proc = subprocess.run(
        ["sh", "-c", script, "sh", *fresh_argv("-m", "minaff", *argv)],
        capture_output=True, text=True, env=fresh_env(), timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: cannot write the report: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize(
    "argv, nbytes",
    [
        # the write in cli.run fails part-way
        (BIG_SAM, 10),
        # a report that fits the stdout buffer: the flush in cli.main fails
        (CHAR, 0),
    ],
    ids=["in the report", "at the flush"],
)
# unbuffered, standard output is a raw file whose short write to the pipe
# the text layer would ignore; cli.main puts a buffered writer under it
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_early_ends_the_process_with_status_1(
    argv, nbytes, unbuffered
):
    proc = subprocess.Popen(
        fresh_argv("-m", "minaff", *argv),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=stdout_env(unbuffered),
    )
    proc.stdout.read(nbytes)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 1
    assert err == b""
