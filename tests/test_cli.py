import csv
import io
import json
import subprocess
import sys
import time

import pytest

from pdvol import __version__
from pdvol import report as rp
from pdvol.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_python_m_entry_point():
    proc = subprocess.run([sys.executable, "-m", "pdvol", "--version"], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"pdvol {__version__}"


def test_moments_value(capsys):
    code, out = run_cli(capsys, "moments", "--n", "2", "--mu", "-1", "--gamma", "1", "--s", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["subcommand"] == "moments"
    assert abs(doc["value"] - 0.5) < 1e-12


def test_identities_all_hold(capsys):
    code, out = run_cli(capsys, "identities", "--grid", "quick")
    assert code == 0
    rows = csv_rows(out)
    assert rows and set(rows[0]) >= {"a", "k", "m", "proposition", "lhs", "rhs", "abs_diff", "holds"}
    main_rows = [r for r in rows if r["proposition"] in ("digamma_sum", "trigamma_sum", "polygamma_sum_bound")]
    assert all(r["holds"] == "True" for r in main_rows)
    alt_odd = [r for r in rows if r["proposition"] == "digamma_sum_alt" and int(r["k"]) % 2 == 1]
    assert alt_odd and all(r["holds"] == "False" for r in alt_odd)


def test_cumulants_json(capsys):
    _, out = run_cli(capsys, "cumulants", "--n", "10", "--mu", "0", "--gamma", "1", "--max-order", "3")
    doc = json.loads(out)
    assert [o["m"] for o in doc["orders"]] == [1, 2, 3]
    assert all(o["abs_diff"] < 1e-6 * max(1.0, abs(o["exact"])) for o in doc["orders"])


def test_cdf_subcommand(capsys):
    _, out = run_cli(capsys, "cdf", "--n", "2", "--mu", "-1", "--x=-1.2,0.0")
    vals = [float(r["value"]) for r in csv_rows(out)]
    assert 0.0 < vals[0] < vals[1] < 1.0


def test_ldp_and_modphi_variants(capsys):
    _, out = run_cli(capsys, "ldp", "--sweep", "100,1000", "--t", "1", "--variant", "both")
    assert {r["variant"] for r in csv_rows(out)} == {"LDP", "MODPHI"}
    _, out = run_cli(capsys, "modphi", "--sweep", "100", "--z", "1")
    assert {r["variant"] for r in csv_rows(out)} == {"adjusted", "stated"}


def test_sample_determinism_and_streams(capsys):
    args = ("sample", "--kind", "radius", "--n", "2", "--count", "200", "--seed", "7", "--streams", "4")
    _, a = run_cli(capsys, *args)
    _, b = run_cli(capsys, *args)
    assert a == b
    rows = csv_rows(a)
    assert len(rows) == 200 and {r["stream"] for r in rows} == {"0", "1", "2", "3"}


def test_delaunay_byte_identical_reports(tmp_path):
    args = ["delaunay2d", "--side", "60", "--guard", "5", "--mu", "-1", "--s", "1", "--seed", "3"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["provenance"] == "tessellation"
    assert abs(doc["estimate"] - 0.5) < 5.0 * doc["std_error"]


@pytest.mark.parametrize("mode, guard", [("plain", 10.0), ("toroidal", 0.0)])
def test_delaunay_guard_default_follows_the_mode(mode, guard, capsys):
    code, out = run_cli(capsys, "delaunay2d", "--side", "30", "--mode", mode)
    assert code == 0
    assert json.loads(out)["config"]["guard"] == guard


def test_per_triangle_csv_embeds_the_document_config(tmp_path):
    per = tmp_path / "tri.csv"
    args = ["delaunay2d", "--side", "30", "--guard", "0", "--mode", "toroidal", "--mu", "0.5", "--s", "2",
            "--seed", "9", "--per-triangle", str(per), "--output", str(tmp_path / "doc.json")]
    assert main(args) == 0
    config = json.loads((tmp_path / "doc.json").read_text())["config"]
    rows = csv_rows(per.read_text())
    assert rows and {r["config"] for r in rows} == {rows[0]["config"]}
    assert json.loads(rows[0]["config"]) == {**config, "detail": "per-triangle"}


def test_specfun_subcommand(capsys):
    _, out = run_cli(capsys, "specfun", "--function", "digamma", "--x", "1.0")
    doc = json.loads(out)
    assert abs(doc["value"] + 0.5772156649) < 1e-9


def test_exit_codes(capsys):
    assert main(["bogus"]) == 1
    assert main(["moments", "--n", "2", "--mu", "-3", "--s", "1"]) == 2
    assert main(["moments", "--n", "2", "--mu", "-1", "--s", "-1.5"]) == 2
    assert main(["moments", "--n", "3", "--mu", "inf", "--s", "1"]) == 2
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"pdvol {__version__}"


@pytest.mark.parametrize("env, args, code", [
    ({}, ["cdf", "--x", "1,abc"], 1),
    ({}, ["cdf", "--x="], 1),
    ({}, ["sample", "--kind", "radius", "--streams", "0"], 1),
    ({}, ["sample", "--kind", "radius", "--count", "-5"], 1),
    ({}, ["delaunay2d", "--side", "30", "--guard", "3", "--replicates", "0"], 1),
    ({}, ["specfun", "--function", "log_unit_ball_volume", "--x", "2.7"], 2),
    ({}, ["specfun", "--function", "log_unit_ball_volume", "--x", "inf"], 2),
    ({"PDVOL_JOBS": "abc"}, ["--version"], 0),  # the variable is not read any more
    ({}, ["delaunay2d", "--jobs", "2"], 1),  # the replicates run in one process
    ({}, ["delaunay2d", "--side", "30", "--mode", "toroidal", "--guard", "3"], 2),  # the torus has no guard
    ({}, ["sample", "--kind", "identity", "--count", "24"], 2),  # the KS test needs 25 draws a side
    ({}, ["cumulants", "--max-order", "7"], 2),  # the oracle stops at order 6, refused before order 1
    ({}, ["cumulants", "--max-order", "0"], 2),  # no empty document
    # NaN is refused, not written as a bare NaN token, which is not JSON
    ({}, ["specfun", "--function", "log_gamma", "--x", "nan"], 2),
    ({}, ["specfun", "--function", "log_gamma", "--x", "2", "--im", "nan"], 2),
    ({}, ["specfun", "--function", "digamma", "--x", "nan"], 2),
    ({}, ["specfun", "--function", "polygamma", "--m", "1", "--x", "nan"], 2),
    ({}, ["specfun", "--function", "reg_lower_incomplete_gamma", "--a", "1", "--x", "nan"], 2),
])
def test_malformed_input_refused(env, args, code, monkeypatch, capsys):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert main(args) == code
    assert capsys.readouterr().out == ("" if code else f"pdvol {__version__}\n")


def _config_keys(out):
    if out.startswith("{"):
        return list(json.loads(out)["config"])
    return list(json.loads(csv_rows(out)[0]["config"]))


@pytest.mark.parametrize("args, keys", [
    (["specfun", "--function", "log_gamma", "--x", "2"], ["subcommand", "function", "x", "im"]),
    (["specfun", "--function", "digamma", "--x", "2"], ["subcommand", "function", "x"]),
    (["specfun", "--function", "polygamma", "--x", "2"], ["subcommand", "function", "m", "x"]),
    (["specfun", "--function", "log_barnes_g", "--x", "2"], ["subcommand", "function", "x"]),
    (["specfun", "--function", "reg_lower_incomplete_gamma", "--x", "2"], ["subcommand", "function", "a", "x"]),
    (["specfun", "--function", "log_unit_ball_volume", "--x", "2"], ["subcommand", "function", "n"]),
    (["moments", "--s", "1"], ["subcommand", "n", "mu", "gamma", "s"]),
    (["cgf"], ["subcommand", "n", "mu", "gamma", "re", "im", "extended"]),
    (["identities", "--grid", "quick"], ["grid", "subcommand"]),
    (["cumulants", "--max-order", "2"], ["subcommand", "n", "mu", "gamma", "max_order"]),
    (["regimes", "--sweep", "100"], ["subcommand", "sweep"]),
    (["cdf", "--x", "0"], ["gamma", "mu", "n", "subcommand", "x"]),
    (["berry-esseen", "--sweep", "10"], ["gamma", "mu", "subcommand", "sweep"]),
    (["ldp", "--sweep", "100", "--t", "1"], ["gamma", "mu", "subcommand", "sweep", "t", "variant"]),
    (["modphi", "--sweep", "100", "--z", "1"], ["gamma", "mu", "subcommand", "sweep", "z"]),
    (["sample", "--kind", "radius", "--count", "10"],
     ["count", "gamma", "kind", "mu", "n", "seed", "streams", "subcommand"]),
    (["sample", "--kind", "identity", "--count", "200"],
     ["subcommand", "kind", "n", "mu", "gamma", "count", "seed", "streams"]),
    (["delaunay2d", "--side", "30", "--guard", "3"],
     ["subcommand", "gamma", "side", "guard", "mode", "mu", "s", "seed", "replicates"]),
    (["report"], ["subcommand", "seed", "quick"]),
])
def test_config_keys_in_order(args, keys, monkeypatch, capsys):
    # JSON documents keep the config in this order; the CSV config column is key-sorted
    monkeypatch.setattr(rp, "run_claims", lambda seed, quick: ([], {}))
    code, out = run_cli(capsys, *args)
    assert code == 0
    assert _config_keys(out) == keys


def test_sample_identity_report(capsys):
    _, out = run_cli(capsys, "sample", "--kind", "identity", "--n", "2", "--mu", "-1", "--count", "20000")
    doc = json.loads(out)
    assert doc["ks"]["p_value"] > 0.01
    assert doc["provenance"] == "monte_carlo"


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("PDVOL_OUTPUT_DIR", str(tmp_path))
    assert main(["moments", "--n", "2", "--mu", "-1", "--s", "1", "--output", "m.json"]) == 0
    assert (tmp_path / "m.json").exists()


def test_sample_over_budget_refused_up_front(capsys):
    # about 2e7 expected proposals against the 1e7 budget: refused before any
    # draw, so the call costs no sampling time
    t0 = time.perf_counter()
    code = main(["sample", "--kind", "volume", "--n", "2", "--mu", "5", "--count", "1500000"])
    assert code == 3
    assert time.perf_counter() - t0 < 2.0
    assert "proposals" in capsys.readouterr().err


@pytest.mark.parametrize("args", [["moments", "--n", "3", "--s", "inf"], ["cgf", "--n", "3", "--re", "inf"]])
def test_non_finite_input_exit_code(args, capsys):
    assert main(args) == 2
    assert "finite" in capsys.readouterr().err
