"""End-to-end command-line surface tests (in-process main())."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from threebody4d import cli, dynamics, equilibria, errors, model

from conftest import singular_newton_system


def run(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = cli.main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_verify_default_passes(tmp_path):
    code, text = run(tmp_path, "verify", "--checks", "symplectic,composition,amatrix")
    assert code == 0
    assert text.count("PASS") == 3
    # symplecticity error reported and under tolerance
    line = [l for l in text.splitlines() if l.startswith("symplectic")][0]
    assert float(line.split("=")[1].split("(")[0]) < 1e-9


def test_verify_invariant_suite(tmp_path):
    code, text = run(tmp_path, "verify", "--checks", "invariant")
    assert code == 0
    assert "invariant" in text and "PASS" in text


def test_verify_invariant_checks_runs_that_exit(monkeypatch):
    # every run ends in a domain exit; the monitors up to the exit still count
    def exiting(field, z0, t_end, cfg, monitors=None):
        mons = {name: np.zeros(2) for name in monitors}
        mons["c1"] = np.array([0.0, 1.0])
        mons["p_theta1"] = np.full(2, 1.3)
        mons["p_theta2"] = np.full(2, 0.4)
        return dynamics.TrajectoryRecord(times=np.array([0.0, 0.1]),
                                         states=np.zeros((2, z0.size)), monitors=mons,
                                         domain_exit="CollisionError: test", exit_time=0.1)

    monkeypatch.setattr(dynamics, "integrate", exiting)
    worst = cli.check_invariant_set(np.random.default_rng(0), model.MassTriple(1.0, 2.0, 3.0),
                                    1.3, 0.4)
    assert worst == 1.0


def test_verify_degenerate_momenta_refused(tmp_path, capsys):
    code = cli.main(["verify", "--mu1", "0.7", "--mu2", "0.7"])
    assert code == 2
    assert "DegenerateMomenta" in capsys.readouterr().err


def test_verify_failing_check_exits_1(tmp_path, capsys):
    code, text = run(tmp_path, "verify", "--checks", "amatrix", "--tol", "1e-30")
    assert code == 1
    assert text.startswith("amatrix:") and text.rstrip().endswith("FAIL")
    assert capsys.readouterr().err == "first failing check: amatrix\n"


def test_verify_amatrix_only(tmp_path):
    code, text = run(tmp_path, "verify", "--checks", "amatrix", "--seed", "7")
    assert code == 0
    lines = [l for l in text.splitlines() if ":" in l]
    assert len(lines) == 1 and lines[0].startswith("amatrix")


def test_verify_unknown_check(tmp_path):
    code, _ = run(tmp_path, "verify", "--checks", "nosuch")
    assert code == 2


def test_equilibrium_isosceles_minimum(tmp_path):
    code, text = run(tmp_path, "equilibrium", "--isosceles", "-n", "1", "-t", "0.01")
    assert code == 0
    rep = json.loads(text)
    assert rep["classification"] == "minimum"
    assert all(e > 0 for e in rep["eigenvalues"])


def test_equilibrium_isosceles_above_line_not_minimum(tmp_path):
    code, text = run(tmp_path, "equilibrium", "--isosceles", "-n", "1", "-t", "0.9")
    assert code == 0
    rep = json.loads(text)
    assert rep["classification"] != "minimum"


def test_equilibrium_general_kepler(tmp_path):
    code, text = run(tmp_path, "equilibrium", "--general", "-m", "1,2,3",
                     "-u", "0.01", "--pair", "2,3")
    assert code == 0
    rep = json.loads(text)
    assert rep["classification"] == "minimum"
    assert abs(rep["kepler1"] - 1.0) < 1e-3
    assert abs(rep["kepler2"] - 1.0) < 1e-3


def test_equilibrium_missing_mode(tmp_path):
    code, _ = run(tmp_path, "equilibrium")
    assert code == 2


def test_scan_isosceles_single_hump(tmp_path):
    code, text = run(tmp_path, "scan", "--isosceles", "-n", "1",
                     "--t-grid", "0.001:0.99:40:log")
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("param,mu1,mu2,h,b,neg_inv_h,class,eig1")
    bs = np.array([float(l.split(",")[4]) for l in lines[1:]])
    assert np.all(bs < 0.25)
    k = int(np.argmax(bs))
    assert np.all(np.diff(bs[:k + 1]) > 0) and np.all(np.diff(bs[k:]) < 0)


def test_scan_region_map_six_labels(tmp_path):
    code, text = run(tmp_path, "scan", "--region-map",
                     "--n-grid", "0.1:5:50", "--t-grid", "0.02:0.98:50")
    assert code == 0
    lines = text.splitlines()[1:]
    labels = {l.split(",")[4] for l in lines} - {"boundary"}
    assert len(labels) == 6


def test_scan_empty_grid_refused(tmp_path):
    code, _ = run(tmp_path, "scan", "--isosceles", "-n", "1", "--t-grid", "")
    assert code == 2


def test_scan_requires_mode(tmp_path):
    code, _ = run(tmp_path, "scan")
    assert code == 2


def test_integrate_near_equilibrium_compare(tmp_path):
    from threebody4d import equilibria
    rep = equilibria.isosceles_equilibrium(1.0, 0.25)
    qs = ",".join(f"{v:.17g}" for v in rep.q)
    period = 2 * 3.14159 / rep.omega1
    code, text = run(tmp_path, "integrate", "--system", "reduced",
                     "-m", "1,1,1", "--mu1", f"{rep.mu1:.17g}",
                     "--mu2", f"{rep.mu2:.17g}", "-q", qs,
                     "-p", "0.001,-0.0005,0.0008,-0.0002",
                     "--t-end", f"{period:.6g}", "--tol", "1e-11", "--compare")
    assert code == 0
    comp = [l for l in text.splitlines() if l.startswith("# compare")][0]
    dev = float(comp.split("max_qp_deviation = ")[1].split(",")[0])
    assert dev < 1e-6


def test_integrate_at_equilibrium_constant(tmp_path):
    from threebody4d import equilibria
    rep = equilibria.isosceles_equilibrium(1.0, 0.2)
    qs = ",".join(f"{v:.17g}" for v in rep.q)
    code, text = run(tmp_path, "integrate", "--system", "reduced",
                     "-m", "1,1,1", "--mu1", f"{rep.mu1:.17g}",
                     "--mu2", f"{rep.mu2:.17g}", "-q", qs, "-p", "0,0,0,0",
                     "--t-end", "2.0", "--tol", "1e-11")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    first = np.array([float(v) for v in lines[1].split(",")[1:9]])
    last = np.array([float(v) for v in lines[-1].split(",")[1:9]])
    assert np.max(np.abs(last - first)) < 1e-8


def test_integrate_collision_domain_exit(tmp_path):
    code, text = run(tmp_path, "integrate", "--system", "reduced",
                     "-m", "1,1,1", "--mu1", "1.0", "--mu2", "0",
                     "-q", "0.5,0,0,2", "-p-0.6,0,0,0", "--t-end", "10")
    assert code == 0
    assert text.startswith("# domain_exit:")
    assert len(text.splitlines()) > 10  # partial trajectory written


def test_integrate_bad_momenta(tmp_path, capsys):
    code = cli.main(["integrate", "--mu1", "0.1", "--mu2", "0.5"])
    assert code == 2


def test_integrate_partial_system_monitors(tmp_path):
    code, text = run(tmp_path, "integrate", "--system", "partial",
                     "-m", "1,2,3", "--mu1", "1.3", "--mu2", "0.4",
                     "-q", "1.1,0.1,-0.2,0.9", "-p", "0.02,0.01,0.03,0.01",
                     "--t-end", "0.5", "--tol", "1e-10")
    assert code == 0
    header = text.splitlines()[0].split(",")
    assert header[:9] == ["t", "q1", "q2", "q3", "q4", "psi1", "psi2",
                          "theta1", "theta2"]
    assert "c1" in header and "p_theta2" in header
    c1_col = header.index("c1")
    vals = [abs(float(l.split(",")[c1_col])) for l in text.splitlines()[1:]]
    assert max(vals) < 1e-8  # starts on the invariant set and stays there


def test_integrate_full_system(tmp_path):
    code, text = run(tmp_path, "integrate", "--system", "full",
                     "-m", "1,1,1", "--mu1", "1.0", "--mu2", "0.3",
                     "-q", "1.1,0.1,-0.2,0.9", "-p", "0,0,0,0",
                     "--t-end", "0.5")
    assert code == 0
    header = text.splitlines()[0].split(",")
    assert header[1] == "x1_0" and "mu1" in header and "H" in header
    mu1_col = header.index("mu1")
    vals = [float(l.split(",")[mu1_col]) for l in text.splitlines()[1:]]
    assert max(vals) - min(vals) < 1e-9  # conserved along the flow


def test_integrate_json_output(tmp_path):
    code, text = run(tmp_path, "integrate", "--system", "reduced",
                     "-m", "1,1,1", "--mu1", "1.0", "--mu2", "0.3",
                     "-q", "1.1,0.1,-0.2,0.9", "-p", "0,0,0,0",
                     "--t-end", "0.2", "--format", "json")
    assert code == 0
    obj = json.loads(text)
    assert obj["domain_exit"] is None
    assert "q1" in obj["states"] and "H" in obj["monitors"]


def test_integrate_midpoint_method(tmp_path):
    code, text = run(tmp_path, "integrate", "--system", "reduced",
                     "-m", "1,1,1", "--mu1", "1.0", "--mu2", "0.3",
                     "-q", "1.1,0.1,-0.2,0.9", "-p", "0,0,0,0",
                     "--t-end", "0.3", "--method", "midpoint", "--dt", "0.001",
                     "--monitor-every", "50")
    assert code == 0
    lines = text.splitlines()
    h_col = lines[0].split(",").index("H")
    hs = [float(l.split(",")[h_col]) for l in lines[1:]]
    # bounded O(dt^2) oscillation, no blow-up
    assert max(abs(h - hs[0]) for h in hs) < 1e-4 * abs(hs[0])


def test_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["scan", "--isosceles", "-n", "1.5", "--t-grid", "0.01:0.9:25"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_same_seed_same_output(tmp_path):
    code, text = run(tmp_path, "verify", "--checks", "symplectic", "--seed", "3")
    code2, text2 = run(tmp_path, "verify", "--checks", "symplectic", "--seed", "3")
    assert code == code2 == 0
    assert text == text2


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# scan configuration\nisosceles = true\nn = 2.0\n"
                   "t_grid = 0.05:0.5:5\nformat = csv\n")
    out1 = tmp_path / "o1.csv"
    assert cli.main(["scan", "--config", str(cfg), "--out", str(out1)]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 6
    # explicit flag beats the file value
    out2 = tmp_path / "o2.csv"
    assert cli.main(["scan", "--config", str(cfg), "--t-grid", "0.05:0.5:3",
                     "--out", str(out2)]) == 0
    assert len(out2.read_text().splitlines()) == 4


def test_config_values_converted_like_flags(tmp_path):
    # a one-point grid is the text "0.1", not the float 0.1
    cfg = tmp_path / "run.cfg"
    cfg.write_text("isosceles = true\nn = 1\nt_grid = 0.1\n")
    code, text = run(tmp_path, "scan", "--config", str(cfg))
    assert code == 0 and len(text.splitlines()) == 2
    cfg.write_text("isosceles = true\nn = abc\nt_grid = 0.1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["scan", "--config", str(cfg)])
    assert exc.value.code == 2


def test_json_format(tmp_path):
    code, text = run(tmp_path, "scan", "--isosceles", "-n", "1",
                     "--t-grid", "0.1,0.2", "--format", "json")
    assert code == 0
    rows = json.loads(text)
    assert len(rows) == 2 and rows[0]["class"] == "minimum"


def test_full_precision_roundtrip(tmp_path):
    code, text = run(tmp_path, "equilibrium", "--isosceles", "-n", "1", "-t", "0.3")
    rep = json.loads(text)
    from threebody4d import equilibria
    direct = equilibria.isosceles_equilibrium(1.0, 0.3)
    assert rep["mu1"] == direct.mu1  # lossless float round-trip
    assert rep["h"] == direct.h


@pytest.mark.parametrize("argv, code", [
    (["equilibrium", "--general", "-m", "a,b,c", "-u", "0.01"], 2),
    (["scan", "--isosceles", "-n", "1", "--t-grid", "0.1:x:3"], 2),
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "0.01", "--pair", "2,2"], 2),
    (["integrate", "--mu1", "nan"], 2),
    (["integrate", "--method", "midpoint", "--dt", "nan", "--t-end", "0.01"], 2),
    (["integrate", "--method", "midpoint", "--dt", "0.05", "--t-end", "3"], 3),
    (["verify", "--mu1", "nan", "--checks", "amatrix"], 2),
    (["equilibrium", "--isosceles", "-n", "nan", "-t", "0.1"], 2),
    (["equilibrium", "--isosceles", "-n", "-1", "-t", "0.1"], 2),
    (["equilibrium", "--isosceles", "-n", "1", "-t", "nan"], 2),
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "nan"], 2),
    (["scan", "--isosceles", "-n", "nan", "--t-grid", "0.1:0.5:3"], 2),
    (["scan", "--isosceles", "-n", "-1", "--t-grid", "0.1:0.5:3"], 2),
    # 1e9 steps of dt: refused before the first step
    (["integrate", "--method", "midpoint", "--dt", "1e-9", "--t-end", "1"], 3),
    # --dps below double precision, negative, or too costly to finish
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "0.005", "--dps", "3"], 2),
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "0.005", "--dps", "20"], 2),
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "0.005", "--dps", "-5"], 2),
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "0.005", "--dps", "100000000"], 2),
    # starts outside the chart (A = 5e-14) or the kinetic domain (|L3| = 1.1 > 0.7)
    *((["integrate", "--system", system, *start, "--t-end", "0.1"], 3)
      for system in ("reduced", "partial", "full")
      for start in (["-q", "1e-13,0,0,1"], ["-q", "1.1,0.1,-0.2,0.9", "-p", "0,1,0,0"])),
    # the README --compare example (ROADMAP item 2)
    (["integrate", "--system", "reduced", "-m", "1,1,1", "--mu1", "1", "--mu2", "0.3",
      "-q", "1,0,0,1", "-p", "0,0,0,0", "--t-end", "10", "--method", "dopri",
      "--tol", "1e-11", "--compare"], 3),
    # the derived momenta have mu2 > mu1
    (["equilibrium", "--general", "-m", "1,2,3", "-u", "5"], 2),
    (["integrate", "--monitor-every", "0", "--t-end", "0.1"], 2),
    # a finite start whose float `**` overflows in the field or the monitors
    *((["integrate", "--system", system, "-q", "1e200,0,0,1", "--t-end", "0.1"], 3)
      for system in ("reduced", "partial")),
    # 10**16 points (71 PiB): an allocation that fails at once
    (["scan", "--isosceles", "-n", "1", "--t-grid", "0.1:0.2:10000000000000000"], 2),
    (["scan", "--isosceles", "-n", "1", "--t-grid", "0.1:0.2:10000000000000000:log"], 2),
    # q1^2 and m1^2 underflow to 0; they end like -t 1e-160 and -m 1e-150,2,3
    (["equilibrium", "--isosceles", "-n", "1", "-t", "1e-300"], 3),
    (["equilibrium", "--general", "-m", "1e-300,2,3", "-u", "0.01"], 2),
    # m1^2 (m2 + m3)^2 overflows; a V_eff Hessian entry is inf
    (["equilibrium", "--general", "-m", "1e150,1e5,1", "-u", "0.01"], 2),
    (["equilibrium", "--general", "-m", "1,1e-300,3", "-u", "0.01"], 3),
])
def test_bad_value_or_solver_failure_reported_without_traceback(tmp_path, capsys,
                                                                argv, code):
    out = tmp_path / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert err.startswith("invalid config: " if code == 2 else "solver failure: ")
    assert not out.exists()


def test_singular_newton_system_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    singular_newton_system(monkeypatch)
    out = tmp_path / "out.txt"
    argv = ["equilibrium", "--general", "-m", "1,2,3", "-u", "0.01", "--dps", "60"]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == "solver failure: NoConvergence: singular Newton system\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, errors", [
    (["scan", "--isosceles", "-n", "1", "--t-grid", "1e-160,1e-300,0.5"], [True, True, False]),
    (["scan", "--general", "-m", "1e-300,2,3", "--u-grid", "0.01,0.02"], [True, True]),
    (["scan", "--general", "-m", "1e150,1e5,1", "--u-grid", "0.01,0.02"], [True, True]),
])
def test_underflowing_scan_points_are_error_rows(tmp_path, capsys, argv, errors):
    code, text = run(tmp_path, *argv)
    assert code == 0 and capsys.readouterr().err == ""
    assert [",error," in line for line in text.splitlines()[1:]] == errors


def test_degenerate_hessian_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    # row and column 1 equal row and column 0: exactly singular and symmetric.
    # The float solve takes no Newton step at this u, so only the report sees it
    hessian = equilibria._veff_hessian

    def singular(terms):
        hess = hessian(terms)
        hess[1] = list(hess[0])
        for row in hess:
            row[1] = row[0]
        return hess
    monkeypatch.setattr(equilibria, "_veff_hessian", singular)
    code, text = run(tmp_path, "equilibrium", "--general", "-m", "1,2,3", "-u", "0.01")
    assert code == 3 and text == ""
    assert capsys.readouterr().err == \
        "solver failure: DegenerateHessian: V_eff Hessian determinant below tolerance\n"


@pytest.mark.parametrize("flag", ["--out", "--config"])
def test_unopenable_path_is_invalid_config(tmp_path, capsys, flag):
    path = tmp_path / "missing" / "file.txt"
    argv = ["equilibrium", "--isosceles", "-n", "1", "-t", "0.01", flag, str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("invalid config: FileNotFoundError: ")
    assert not path.parent.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--checks", "amatrix", "--format", "json"],
    ["equilibrium", "--isosceles", "-n", "1", "-t", "0.01", "--format", "csv"],
    ["equilibrium", "--isosceles", "-n", "1", "-t", "0.01", "--seed", "3"],
    ["equilibrium", "--isosceles", "-n", "1", "-t", "0.01", "--tol", "1e-3"],
    ["scan", "--isosceles", "-n", "1", "--t-grid", "0.1,0.2", "--seed", "3"],
    ["scan", "--isosceles", "-n", "1", "--t-grid", "0.1,0.2", "--tol", "1e-3"],
    ["scan", "--isosceles", "-n", "1", "--t-grid", "0.1,0.2", "--workers", "2"],
    ["integrate", "--t-end", "0.1", "--seed", "3"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flags_a_command_does_not_read_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"error: unrecognized arguments: {argv[-2]} {argv[-1]}")
    assert not out.exists()


ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and c.__module__ == errors.__name__]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_classes_decide_exit_code_and_domain_exit(tmp_path, capsys, monkeypatch, cls):
    # the CLI exits 3 exactly on a SolverFailure and 2 on any other error of
    # the package; an integration ends as a domain exit exactly on a DomainError
    def failing(*args):
        raise cls("boom")
    monkeypatch.setattr(equilibria, "isosceles_equilibrium", failing)
    code = cli.main(["equilibrium", "--isosceles", "-n", "1", "-t", "0.01",
                     "--out", str(tmp_path / "out.json")])
    solver = issubclass(cls, errors.SolverFailure)
    assert code == (3 if solver else 2)
    kind = "solver failure" if solver else "invalid config"
    assert capsys.readouterr().err == f"{kind}: {cls.__name__}: boom\n"

    def kernel(t, z):
        if t > 0.05:
            raise cls("boom")
        return [1.0]
    field = dynamics.VectorField(1, kernel=kernel)
    for method in ("dopri", "midpoint"):
        cfg = dynamics.IntegratorConfig(method=method, dt=0.01)
        if issubclass(cls, errors.DomainError):
            rec = dynamics.integrate(field, [0.0], 0.1, cfg)
            assert rec.domain_exit == f"{cls.__name__}: boom"
            assert rec.exit_time < 0.1
        else:
            with pytest.raises(cls):
                dynamics.integrate(field, [0.0], 0.1, cfg)


def test_config_keys_a_command_does_not_read_are_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("isosceles = true\nn = 1\nt = 0.01\ntol = 1e-3\n")
    out = tmp_path / "out.txt"
    assert cli.main(["equilibrium", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid config: ConfigError: unknown config key 'tol'\n"
    assert not out.exists()


@pytest.mark.parametrize("command, lines", [
    ("scan", "isosceles = true\nn = 1\nt_grid = 0.1,0.2\nformat = xml\n"),
    ("integrate", "t_end = 0.01\nformat = xml\n"),
    ("integrate", "t_end = 0.01\nsystem = planar\n"),
    ("integrate", "t_end = 0.01\nmethod = rk4\n"),
])
def test_config_values_outside_choices_are_refused(tmp_path, capsys, command, lines):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    out = tmp_path / "out.txt"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ConfigError: config ")
    assert len(err.splitlines()) == 1 and "is not one of" in err
    assert not out.exists()
    # a flag on the command line still wins over the file value
    if "format" in lines:
        assert cli.main([command, "--config", str(cfg), "--format", "json",
                         "--out", str(out)]) == 0
        json.loads(out.read_text())


def _readme_commands():
    """The `threebody4d` command lines of the README's sh block, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text[text.index("## Command line"):]
    block = block[block.index("```sh\n") + 6:]
    block = block[:block.index("```")].replace("\\\n", " ")
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [line[1:] for line in lines if line[:1] == ["threebody4d"]]


README_RUNS = [
    argv if argv[0] != "integrate" else pytest.param(argv, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="exits 3 with ChartSingular: the inverse chart is singular at "
               "psi1 = pi/2, where embed_reduced puts every L3 = 0 state (ROADMAP item 2)"))
    for argv in _readme_commands() if argv[0] in ("equilibrium", "scan", "integrate")]


@pytest.mark.parametrize("argv", README_RUNS, ids=" ".join)
def test_readme_command(tmp_path, argv):
    argv = list(argv)
    if "--out" in argv:
        del argv[argv.index("--out"):argv.index("--out") + 2]
    code, text = run(tmp_path, *argv)
    assert code == 0
    if argv[0] == "equilibrium":
        assert json.loads(text)["classification"] in ("minimum", "saddle", "indefinite-K")
        return
    lines = text.splitlines()
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    assert len(rows) > 1 and all(len(r) == len(rows[0]) for r in rows)
    assert all(math.isfinite(float(r[0])) for r in rows[1:])
    if argv[0] == "integrate":
        assert any(line.startswith("# compare:") for line in lines)
