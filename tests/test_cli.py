import csv
import io
import json
import subprocess
import sys
import time

from pdvol.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "pdvol", *args], capture_output=True, text=True, timeout=600
    )
    return proc


def test_moments_value():
    proc = run_cli("moments", "--n", "2", "--mu", "-1", "--gamma", "1", "--s", "1")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema_version"] == 1
    assert doc["config"]["subcommand"] == "moments"
    assert abs(doc["value"] - 0.5) < 1e-12


def test_identities_all_hold():
    proc = run_cli("identities", "--grid", "quick")
    assert proc.returncode == 0
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert rows and set(rows[0]) >= {"a", "k", "m", "proposition", "lhs", "rhs", "abs_diff", "holds"}
    main_rows = [r for r in rows if r["proposition"] in ("digamma_sum", "trigamma_sum", "polygamma_sum_bound")]
    assert all(r["holds"] == "True" for r in main_rows)
    alt_odd = [r for r in rows if r["proposition"] == "digamma_sum_alt" and int(r["k"]) % 2 == 1]
    assert alt_odd and all(r["holds"] == "False" for r in alt_odd)


def test_cumulants_json():
    proc = run_cli("cumulants", "--n", "10", "--mu", "0", "--gamma", "1", "--max-order", "3")
    doc = json.loads(proc.stdout)
    assert [o["m"] for o in doc["orders"]] == [1, 2, 3]
    assert all(o["abs_diff"] < 1e-6 * max(1.0, abs(o["exact"])) for o in doc["orders"])


def test_cdf_subcommand():
    proc = run_cli("cdf", "--n", "2", "--mu", "-1", "--x=-1.2,0.0")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    vals = [float(r["value"]) for r in rows]
    assert 0.0 < vals[0] < vals[1] < 1.0


def test_ldp_and_modphi_variants():
    proc = run_cli("ldp", "--sweep", "100,1000", "--t", "1", "--variant", "both")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    variants = {r["variant"] for r in rows}
    assert variants == {"LDP", "MODPHI"}
    proc = run_cli("modphi", "--sweep", "100", "--z", "1")
    rows = list(csv.DictReader(io.StringIO(proc.stdout)))
    assert {r["variant"] for r in rows} == {"adjusted", "stated"}


def test_sample_determinism_and_streams():
    a = run_cli("sample", "--kind", "radius", "--n", "2", "--count", "200", "--seed", "7", "--streams", "4")
    b = run_cli("sample", "--kind", "radius", "--n", "2", "--count", "200", "--seed", "7", "--streams", "4")
    assert a.stdout == b.stdout
    rows = list(csv.DictReader(io.StringIO(a.stdout)))
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


def test_specfun_subcommand():
    proc = run_cli("specfun", "--function", "digamma", "--x", "1.0")
    doc = json.loads(proc.stdout)
    assert abs(doc["value"] + 0.5772156649) < 1e-9


def test_exit_codes():
    assert run_cli("bogus").returncode == 1
    assert run_cli("moments", "--n", "2", "--mu", "-3", "--s", "1").returncode == 2
    assert run_cli("moments", "--n", "2", "--mu", "-1", "--s", "-1.5").returncode == 2
    assert run_cli("moments", "--n", "3", "--mu", "inf", "--s", "1").returncode == 2
    assert run_cli("--version").returncode == 0


def test_sample_identity_report():
    proc = run_cli("sample", "--kind", "identity", "--n", "2", "--mu", "-1", "--count", "20000")
    doc = json.loads(proc.stdout)
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
