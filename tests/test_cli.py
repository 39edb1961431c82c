import json
import math

import pytest

from frac_autocorr import autocorr, fracpart, vasyunin
from frac_autocorr.cli import run


def test_value_a(capsys):
    assert run(["value", "A", "1/2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("A(1/2) = 0.77220925599087")
    assert "agreement radius" in lines[2]


def test_value_json(capsys):
    assert run(["value", "V", "1", "3", "--format", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["value"] == pytest.approx(-1.0 / (3.0 * math.sqrt(3.0)), abs=1e-13)


def test_value_estermann(capsys):
    assert run(["value", "E", "0", "1", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("E(0j; 1/2) = 0.25")


def test_value_phi_and_gamma(capsys):
    assert run(["value", "phi2", "1/2"]) == 0
    assert "phi2(1/2) = -0.0342694597260047" in capsys.readouterr().out
    assert run(["value", "gamma_rq", "1", "1"]) == 0
    assert "0.57721566490153" in capsys.readouterr().out


def test_scan_farey_csv_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["scan-farey", "--order", "30", "--out", str(out1)]) == 0
    assert run(["scan-farey", "--order", "30", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "p,q,lambda,A"
    # 1 + sum_{q<=30} phi(q) rows
    phis = sum(sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1) for q in range(1, 31))
    assert len(lines) - 1 == 1 + phis


def test_scan_farey_svg(tmp_path, capsys):
    svg = tmp_path / "f.svg"
    assert run(["scan-farey", "--order", "8", "--out", str(tmp_path / "f.csv"), "--svg", str(svg)]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 600">')


def test_check_suite_pass(capsys):
    assert run(["check", "--suite", "estermann"]) == 0
    out = capsys.readouterr().out
    assert "ok   estermann:g1_residue_at_minus2" in out
    assert "max residual ratio" in out


def test_check_suite_failure_is_machine_readable(capsys, monkeypatch):
    psi = vasyunin.vasyunin_psi
    monkeypatch.setattr(vasyunin, "vasyunin_psi", lambda p, q: psi(p, q) + 1.0)
    rc = run(["check", "--suite", "vasyunin"])
    out = capsys.readouterr().out
    assert rc == 1
    report = json.loads(out.splitlines()[-1])
    assert report["failures"] and report["failures"][0]["suite"] == "vasyunin"
    # the checks that do not call the psi route pass, the geometric lemma's two bounds among them
    assert {f["name"] for f in report["failures"]} == {"cot_vs_psi_per_q", "b1cot_vs_psi_per_q"}


def test_failed_frullani_check_is_a_check_failure(capsys, monkeypatch):
    # a residual above the tolerance is judged by the suite's bound, not raised
    integral = fracpart.frac_over_t2_integral
    monkeypatch.setattr(fracpart, "frac_over_t2_integral", lambda a, b: integral(a, b) + 1e-6)
    rc = run(["check", "--suite", "fracpart"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL fracpart:frullani_residual" in out
    report = json.loads(out.splitlines()[-1])
    assert {"suite": "fracpart", "name": "frullani_residual"}.items() <= report["failures"][0].items()


def test_dump_vtable(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert run(["dump", "vtable", "--qmax", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "q,p,V"
    assert lines[1] == "1,1,0"
    phis = sum(sum(1 for p in range(1, q + 1) if math.gcd(p, q) == 1) for q in range(1, 7))
    assert len(lines) - 1 == phis


def test_usage_errors(capsys):
    assert run(["value", "A", "1/0"]) == 2
    assert run(["bogus"]) == 2
    assert run(["check", "--suite", "nope"]) == 2
    assert run(["check", "--suite", "estermann", "--tol", "1"]) == 2  # bounds are not options
    assert run(["value", "X", "1"]) == 2  # argparse rejects an unknown quantity
    capsys.readouterr()


def test_memory_error_is_a_usage_error(capsys, monkeypatch):
    def exhausted(p, q):
        raise MemoryError

    monkeypatch.setattr(autocorr, "a_rational", exhausted)
    assert run(["value", "A", "1/2"]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_dump_residual_tables(tmp_path, capsys):
    fe = tmp_path / "fe.csv"
    assert run(["dump", "fe-residuals", "--qmax", "8", "--count", "2", "--out", str(fe)]) == 0
    lines = fe.read_text().splitlines()
    assert lines[0] == "which,s_re,s_im,h,k,residual"
    assert len(lines) == 11  # 5 equations x 2 points
    mr = tmp_path / "mr.csv"
    assert run(["dump", "mellin-residuals", "--out", str(mr)]) == 0
    capsys.readouterr()
    lines = mr.read_text().splitlines()
    assert lines[0] == "which,s_re,s_im,p,q,residual"
    assert len(lines) == 28  # 3 x 3 grid x (A, Delta at 0/1, Delta at 1/2)
    assert all(float(line.split(",")[-1]) < 1e-5 for line in lines[1:])
