import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("env,argv", [
    ("abc", []), ("0", []), ("-5", []),
    (None, ["--budget", "0"]), (None, ["--jobs", "0"]), (None, ["--jobs", "-2"]),
])
def test_bad_budget_or_jobs_is_usage_error(capsys, monkeypatch, env, argv):
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


def test_search_objective_requires_target(capsys):
    code, _, err = run(capsys, "search", "--q", "4", "--ell", "2", "--n", "21",
                       "--objective", "max_k_given_d")
    assert code == 2
    assert "target" in err


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
