import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cosetcodes import cli, codes
from cosetcodes.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cosets_text(capsys):
    code, out, _ = run(capsys, "cosets", "--q", "4", "--n", "51")
    assert code == 0
    assert out.count("{") == 15
    assert "{1,4,13,16}" in out


def test_cosets_json(capsys):
    code, out, _ = run(capsys, "cosets", "--q", "4", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["{0}  {1}  {2}"]
    code, out, _ = run(capsys, "cosets", "--q", "4", "--n", "21", "--format", "json")
    obj = json.loads(out)
    assert obj["cosets"][1] == [1, 4, 16]


def test_classical_with_certification(capsys):
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "51",
                       "--r", "16", "--certify")
    assert code == 0
    assert "[52, 5, >=36]" in out
    assert "exact d = 36" in out


def test_classical_family_trivial(capsys):
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "51",
                       "--family", "0")
    assert code == 0
    assert "[52, 1, >=52]" in out


def test_classical_csv_schema(capsys):
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "63",
                       "--r", "21", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "q,ell,n,block_length,k_or_quantum_k,d_lower,d_exact,S_representatives"
    assert lines[1] == "4,,63,64,8,43,,0 1 5 21"


def test_classical_budget_fallback(capsys, monkeypatch):
    monkeypatch.setenv("COSETCODES_BUDGET", "10")
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "51",
                       "--r", "17", "--certify")
    assert code == 0
    assert "bound only" in out
    assert "exact d" not in out


@pytest.mark.parametrize("argv", [
    ("classical", "--q", "4", "--n", "21", "--family", "0,22"),
    ("quantum", "--q", "4", "--ell", "2", "--n", "21", "--family", "0,-1"),
])
def test_representative_outside_zero_to_n_minus_one_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "residue" in err and "outside 0..20" in err


@pytest.mark.parametrize("argv,message", [
    (("cosets", "--q", "6", "--n", "7"), "q=6 is not a prime power"),
    (("cosets", "--q", "1", "--n", "5"), "q=1 is not a prime power"),
    (("cosets", "--q", "-3", "--n", "8"), "q=-3 is not a prime power"),
    (("search", "--q", "9", "--ell", "3", "--n", "10"),
     "the characteristic of q=9 does not divide n+1=11"),
])
def test_table_outside_the_rules_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("argv,codewords", [
    (("classical", "--q", "4", "--n", "21", "--family", "0,1,2,3", "--certify"),
     4**10 - 1),
    (("quantum", "--q", "4", "--ell", "2", "--n", "21", "--family", "0,1,2,3",
      "--certify-dual"), 4**12 - 1),
])
def test_csv_names_a_refusal_on_stderr(capsys, argv, codewords):
    code, out, err = run(capsys, *argv, "--budget", "100", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[6] == ""  # d_exact
    assert err == f"bound only: enumeration of {codewords} codewords exceeds budget 100\n"
    code, _, err = run(capsys, *argv, "--format", "csv")
    assert code == 0 and err == ""


@pytest.mark.parametrize("env,argv", [
    ("abc", []), ("0", []), ("-5", []),
    (None, ["--budget", "0"]),
])
def test_bad_budget_is_usage_error(capsys, monkeypatch, env, argv):
    if env is not None:
        monkeypatch.setenv("COSETCODES_BUDGET", env)
    with pytest.raises(SystemExit) as exc:
        main(["classical", "--q", "4", "--n", "51", "--r", "16", "--certify", *argv])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "abc", "1.5"])
def test_bad_node_budget_is_usage_error(capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--q", "4", "--ell", "2", "--n", "21", "--node-budget", value])
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_small_node_budget_reports_incomplete_frontier(capsys):
    code, out, _ = run(capsys, "search", "--q", "4", "--ell", "2", "--n", "21",
                       "--node-budget", "3")
    assert code == 1
    assert "INCOMPLETE" in out


def test_budget_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("COSETCODES_BUDGET", "abc")
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "51", "--r", "16",
                       "--certify", "--budget", "10")
    assert code == 0
    assert "bound only" in out


def test_python_dash_m_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "cosetcodes", "cosets", "--q", "4", "--n", "3"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["{0}  {1}  {2}"]


def test_quantum_fixture(capsys):
    code, out, _ = run(capsys, "quantum", "--q", "4", "--ell", "2",
                       "--n", "21", "--family", "0,1,2,3")
    assert code == 0
    assert "[[22, 2, >=6]]" in out
    assert "self_orthogonal=True" in out


def test_quantum_certify_dual_past_the_int64_cap_stays_bound_only(capsys):
    # 4^63 - 1 codewords fit a budget of 10^38 but not the kernel's int64 counts
    code, out, _ = run(capsys, "quantum", "--q", "4", "--ell", "2", "--n", "63",
                       "--family", "0", "--certify-dual", "--budget", str(10**38))
    assert code == 0
    assert "dual code distance not certified" in out
    assert "int64 count cap 2^62" in out
    assert "exceeds budget" not in out


def test_quantum_certify_dual_json_names_a_refusal(capsys):
    code, out, _ = run(capsys, "quantum", "--q", "4", "--ell", "2", "--n", "21",
                       "--family", "0,1,2,3", "--certify-dual", "--budget", "100",
                       "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert "distance_certificate" not in obj
    assert list(obj)[-2:] == ["field", "certification_skipped"]
    assert obj["certification_skipped"] == \
        "enumeration of 16777215 codewords exceeds budget 100"


def test_classical_certify_past_the_int64_cap_names_the_cap(capsys):
    budget = str(10**38)
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "63", "--r", "62",
                       "--certify", "--budget", budget)
    assert code == 0
    assert "bound only: enumeration of 85070591730234615865843651857942052863 " \
           "codewords reaches the int64 count cap 2^62" in out
    assert "exceeds budget" not in out
    code, out, _ = run(capsys, "classical", "--q", "4", "--n", "63", "--r", "62",
                       "--certify", "--budget", budget, "--format", "json")
    skipped = json.loads(out)["certification_skipped"]
    assert "int64 count cap" in skipped and "exceeds budget" not in skipped


def test_quantum_rejection_names_pair(capsys):
    code, out, err = run(capsys, "quantum", "--q", "4", "--ell", "2",
                         "--n", "21", "--family", "0,7")
    assert code == 1
    assert "S_7" in err


def test_quantum_json_schema(capsys):
    code, out, _ = run(capsys, "quantum", "--q", "4", "--ell", "2",
                       "--n", "51", "--family", "0,1,2,6", "--format", "json")
    obj = json.loads(out)
    assert obj["quantum_k"] == 26 and obj["d_lower"] == 6
    assert obj["field"]["modulus"] == [1, 0, 1, 1, 1, 0, 0, 0, 1]


def test_search_text_and_exit(capsys):
    code, out, _ = run(capsys, "search", "--q", "16", "--ell", "4", "--n", "51")
    assert code == 0
    assert "[[52, 38, >=5]]" in out
    assert "[[52, 14, >=12]]" in out


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--budget", "5"]])
def test_search_rejects_enumeration_flags(capsys, flag):
    # search never enumerates codewords, so it takes no budget; and no
    # command takes a worker count, which the enumeration measures itself
    argvs = [["search", "--q", "4", "--ell", "2", "--n", "21"]]
    if flag[0] == "--jobs":
        argvs += [["classical", "--q", "4", "--n", "21", "--r", "5", "--certify"],
                  ["quantum", "--q", "4", "--ell", "2", "--n", "21", "--family", "0,1",
                   "--certify-dual"],
                  ["verify"]]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_search_objective_requires_target(capsys):
    code, _, err = run(capsys, "search", "--q", "4", "--ell", "2", "--n", "21",
                       "--objective", "max_k_given_d")
    assert code == 2
    assert "target" in err


def test_search_pareto_with_target_is_usage_error(capsys):
    code, out, err = run(capsys, "search", "--q", "4", "--ell", "2", "--n", "21",
                         "--target", "3")
    assert code == 2
    assert out == ""
    assert "objective 'pareto' takes no target" in err


def test_ell_q_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "quantum", "--q", "4", "--ell", "3",
                       "--n", "21", "--family", "0")
    assert code == 2


def test_matrix_export_and_recheck(tmp_path, capsys):
    path = tmp_path / "m.json"
    code, _, _ = run(capsys, "matrix", "--q", "4", "--n", "51", "--r", "16",
                     "-o", str(path))
    assert code == 0
    code, out, _ = run(capsys, "recheck", str(path))
    assert code == 0
    assert "ok" in out
    # corrupt one entry: recheck must fail
    obj = json.loads(path.read_text())
    obj["entries"][5] = (obj["entries"][5] + 1) % 4
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "recheck", str(path))
    assert code != 0


@pytest.mark.parametrize("mangle,named", [
    (lambda obj: {k: v for k, v in obj.items() if k != "family"}, '"family"'),
    (lambda obj: [obj], "not a JSON object"),
    (lambda obj: {**obj, "field": {k: v for k, v in obj["field"].items() if k != "e"}},
     '"e"'),
    (lambda obj: {**obj, "family": 5}, '"family"'),
    (lambda obj: {**obj, "family": [5]}, '"family"'),
    (lambda obj: {**obj, "q": "4"}, '"q"'),
    (lambda obj: {**obj, "entries": [-1] + obj["entries"][1:]}, '"entries"'),
    (lambda obj: {**obj, "entries": [65536] + obj["entries"][1:]}, '"entries"'),
    # f_0 = 1 in every primitive binary modulus, so int(1.5) would pass
    (lambda obj: {**obj, "field": {**obj["field"],
                                   "modulus": [None] + obj["field"]["modulus"][1:]}},
     '"modulus"'),
    (lambda obj: {**obj, "field": {**obj["field"],
                                   "modulus": [1.5] + obj["field"]["modulus"][1:]}},
     '"modulus"'),
    # json booleans are Python bools, which are ints: true would read as 1
    (lambda obj: {**obj, "entries": [True] + obj["entries"][1:]}, '"entries"'),
    (lambda obj: {**obj, "field": {**obj["field"],
                                   "modulus": [True] + obj["field"]["modulus"][1:]}},
     '"modulus"'),
    (lambda obj: {**obj, "family": [[0], [True] + obj["family"][1][1:]]}, '"family"'),
    (lambda obj: {**obj, "rows": True}, '"rows"'),
    # table.family would drop the repeat, and the rebuild would then match
    (lambda obj: {**obj, "family": obj["family"] + [obj["family"][1]]}, '"family"'),
    (lambda obj: {**obj, "rows": obj["rows"] + 3}, '"rows"'),
    (lambda obj: {**obj, "rows": obj["cols"], "cols": obj["rows"]}, '"cols"'),
    (lambda obj: {**obj, "entries": obj["entries"][:-1]}, "entries"),
], ids=["no-family", "top-level-list", "field-without-e", "family-not-list",
        "coset-not-list", "q-not-int", "entry-negative", "entry-too-large",
        "modulus-null", "modulus-float", "entry-true", "modulus-true",
        "residue-true", "rows-true", "family-repeated-coset", "rows-wrong",
        "rows-cols-swapped", "entries-short"])
def test_recheck_of_malformed_export_is_an_error(tmp_path, capsys, mangle, named):
    path = tmp_path / "m.json"
    run(capsys, "matrix", "--q", "4", "--n", "21", "--family", "0,1", "-o", str(path))
    path.write_text(json.dumps(mangle(json.loads(path.read_text()))))
    code, out, err = run(capsys, "recheck", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


def test_recheck_checks_the_field_before_it_builds_the_table(tmp_path, capsys, monkeypatch):
    # the coset table of n takes O(n) time and memory; n must divide the
    # export field's group order, which bounds n before the table is built
    path = tmp_path / "m.json"
    run(capsys, "matrix", "--q", "4", "--n", "3", "--family", "0,1", "-o", str(path))
    path.write_text(json.dumps({**json.loads(path.read_text()), "n": 4000001}))

    def no_table(q, n):
        raise AssertionError(f"coset table of n={n} built before the field check")

    monkeypatch.setattr(codes, "compute_cosets", no_table)
    start = time.perf_counter()
    code, out, err = run(capsys, "recheck", str(path))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "error: 4000001 does not divide the multiplicative group order 3\n"


@pytest.mark.parametrize("argv,message", [
    ("classical --q 4 --n 4000001 --r 3", "field size above n=4000001 exceeds"),
    ("matrix --q 4 --n 4000001 --r 3", "field size above n=4000001 exceeds"),
    ("quantum --q 4 --ell 2 --n 4000001 --family 0", "field size above n=4000001 exceeds"),
    ("search --q 4 --ell 2 --n 4000001", "field size above n=4000001 exceeds"),
    # below 2^20 the order of q mod n sizes the field, as make_field words it
    ("classical --q 4 --n 1000001 --r 3", "field size 2^9900 exceeds"),
    ("quantum --q 4 --ell 2 --n 999999 --family 0", "field size 2^180 exceeds"),
])
def test_oversized_field_is_refused_before_the_coset_table(capsys, monkeypatch, argv, message):
    # n divides q^m - 1 < 2^20, so the field size is known before the O(n) table
    def no_table(q, n):
        raise AssertionError(f"coset table of n={n} built before the field check")

    monkeypatch.setattr(cli, "compute_cosets", no_table)
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and "maximum 2^20" in err


def test_outputs_are_deterministic(capsys):
    _, out1, _ = run(capsys, "quantum", "--q", "4", "--ell", "2", "--n", "51",
                     "--family", "0,1,2,6", "--format", "json")
    _, out2, _ = run(capsys, "quantum", "--q", "4", "--ell", "2", "--n", "51",
                     "--family", "0,1,2,6", "--format", "json")
    assert out1 == out2


def test_verify_skip_certify(capsys):
    code, out, _ = run(capsys, "verify", "--skip-certify")
    assert code == 0
    assert "0 failed" in out
    assert "[INFO]" in out  # the published-exceeding-bound entries


def test_verify_catches_corrupted_fixture(capsys, monkeypatch):
    from cosetcodes import fixtures

    data = fixtures.load_known_answers()
    data["orders"][0] = [4, 51, 5]  # wrong on purpose
    monkeypatch.setattr(fixtures, "load_known_answers", lambda: data)
    code, out, _ = run(capsys, "verify", "--skip-certify")
    assert code == 1
    assert "[FAIL] order of 4 mod 51" in out


def test_verify_budget_too_small_for_any_certification(capsys):
    code, out, err = run(capsys, "verify", "--budget", "10")
    assert code == 0, err
    assert "[INFO] certified d q=4 n=51 r=16: expected 36, computed bound only: " \
           "enumeration of 1023 codewords exceeds budget 10" in out
    assert "[INFO] dual-code certification ell=2 n=21" in out
    assert out.splitlines()[-1] == "34 passed, 0 failed, 8 informational"


def test_verify_budget_refusing_only_the_dual_certification(capsys):
    code, out, _ = run(capsys, "verify", "--budget", "100000")
    assert code == 0
    assert "[FAIL]" not in out
    assert ("[INFO] dual-code certification ell=2 n=21: expected dim 12, exact d 6, "
            "computed bound only: enumeration of 16777215 codewords exceeds budget 100000"
            in out.splitlines())
    assert out.splitlines()[-1] == "39 passed, 0 failed, 3 informational"


# one argv per subcommand that makes its handler reach every option it takes
HANDLER_ARGVS = {
    "cosets": ["--q", "4", "--n", "3"],
    "classical": ["--q", "4", "--n", "21", "--family", "0,1", "--certify"],
    "matrix": ["--q", "4", "--n", "21", "--family", "0,1"],
    "recheck": ["{export}"],
    "quantum": ["--q", "4", "--ell", "2", "--n", "21", "--family", "0,1,2,3",
                "--certify-dual"],
    "search": ["--q", "4", "--ell", "2", "--n", "21"],
    "verify": ["--skip-certify"],
}


@pytest.mark.parametrize("command", sorted(HANDLER_ARGVS))
def test_every_option_is_read_by_its_handler(tmp_path, capsys, command):
    export = tmp_path / "m.json"
    assert main(["matrix", "--q", "4", "--n", "21", "--family", "0,1", "-o", str(export)]) == 0
    reads: set[str] = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    argv = [a.format(export=export) for a in HANDLER_ARGVS[command]]
    args = parser.parse_args([command, *argv], namespace=Recorder())
    dests = set(vars(args)) - {"command"}
    reads.clear()  # argparse reads attributes while it fills them
    getattr(cli, f"cmd_{command}")(args)
    capsys.readouterr()
    assert dests - reads == set()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(HANDLER_ARGVS)
