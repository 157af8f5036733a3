"""Command-line surface: verify, equilibrium, scan, integrate.

Exit codes: 0 success, 1 check failure, 2 invalid configuration,
3 solver failure; `main` is the one place that maps exceptions to them,
with one stderr line each.  All numeric output is written with 17
significant digits so files round-trip losslessly; identical configuration
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from . import dynamics, equilibria, model, reduction
from .errors import SolverFailure

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SOLVER = 3

# every solver failure of the package and a float `**` overflow (exit 3); every
# other ValueError, and an OSError opening --out or --config, is invalid config (exit 2)
SOLVER_FAILURES = (SolverFailure, OverflowError)


class ConfigError(ValueError):
    pass


class CheckFailed(Exception):
    """A verification check exceeded its tolerance (exit 1)."""


def _number(text: str) -> float:
    """One finite number from a command-line value."""
    try:
        val = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(val):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return val


def _check_finite(flags: dict) -> None:
    """Raise ConfigError for the first given flag whose value is not finite."""
    for flag, val in flags.items():
        if val is not None and not math.isfinite(val):
            raise ConfigError(f"{flag} must be finite, got {val!r}")


def _parse_masses(text: str) -> model.MassTriple:
    parts = [_number(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three masses, got {text!r}")
    return model.MassTriple(*parts)


def _parse_pair(text: str) -> tuple:
    """Two distinct 1-based body indices, 'i,j'."""
    try:
        pair = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --pair {text!r}") from exc
    if len(pair) != 2 or pair[0] == pair[1] or not set(pair) <= {1, 2, 3}:
        raise ConfigError(f"--pair must name two distinct bodies in 1..3, got {text!r}")
    return pair


def _parse_grid(text: str) -> np.ndarray:
    """Grid spec 'start:stop:count[:log]' or comma-separated values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"bad grid spec {text!r}")
        start, stop = _number(parts[0]), _number(parts[1])
        try:
            count = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"bad grid count in {text!r}") from exc
        if count < 1:
            raise ConfigError("grid needs at least one point")
        if len(parts) == 4 and parts[3] != "log":
            raise ConfigError(f"unknown grid qualifier {parts[3]!r}")
        if len(parts) == 4 and (start <= 0 or stop <= 0):
            raise ConfigError("log grid needs positive endpoints")
        try:
            return (np.geomspace if len(parts) == 4 else np.linspace)(start, stop, count)
        except MemoryError as exc:
            raise ConfigError(f"a grid of {count} points does not fit in memory") from exc
    vals = [_number(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise ConfigError("empty grid")
    return np.array(vals)


def _load_config_file(path: str) -> dict:
    """key = value lines; '#' comments; values stay strings."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip().strip('"')
    return out


def _coerce(val: str):
    """Switch values as booleans; any other value stays a string, which
    argparse converts with the flag's own type, as it does a flag's text."""
    low = val.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    return val


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


# --- verify ------------------------------------------------------------------

def check_symplectic(rng, masses, mu1, mu2):
    jmat = np.zeros((16, 16))
    jmat[0:8, 8:16] = np.eye(8)
    jmat[8:16, 0:8] = -np.eye(8)
    worst = 0.0
    for _ in range(100):
        part = reduction.random_chart_point(rng)
        dmat = reduction.lift_jacobian(part)
        worst = max(worst, float(np.max(np.abs(dmat.T @ jmat @ dmat - jmat))))
    return worst


def check_composition(rng, masses, mu1, mu2):
    worst = 0.0
    for _ in range(100):
        part = reduction.random_chart_point(rng)
        h_part = reduction.hamiltonian_partial(masses, part)
        h_full = model.hamiltonian_full(masses, reduction.lift_to_full(part))
        worst = max(worst, abs(h_part - h_full) / max(abs(h_full), 1e-300))
        red = reduction.random_reduced_state(rng, mu1, mu2)
        emb = reduction.embed_reduced(red)
        h_red = reduction.hamiltonian_reduced(masses, red)
        h_emb = reduction.hamiltonian_partial(masses, emb)
        worst = max(worst, abs(h_red - h_emb) / max(abs(h_red), 1e-300))
    return worst


def check_invariant_set(rng, masses, mu1, mu2):
    worst = 0.0
    field = dynamics.partial_field(masses)
    for _ in range(5):
        red = reduction.random_reduced_state(rng, mu1, mu2)
        z0 = reduction.partial_to_array(reduction.embed_reduced(red))
        cfg = dynamics.IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
        t_end = 2.0
        rec = dynamics.integrate(field, z0, t_end, cfg,
                                 monitors=dynamics.partial_monitors(masses, mu1, mu2))
        for i in range(4):
            worst = max(worst, float(np.max(np.abs(rec.monitors[f"c{i + 1}"]))))
        worst = max(worst, float(np.max(np.abs(rec.monitors["p_theta1"] - mu1))))
        worst = max(worst, float(np.max(np.abs(rec.monitors["p_theta2"] - mu2))))
    return worst


def check_amatrix(rng, masses, mu1, mu2):
    worst = 0.0
    for _ in range(20):
        red = reduction.random_reduced_state(rng, mu1, mu2)
        part = reduction.embed_reduced(red)
        amat, det = reduction.restriction_matrix_A(part)
        target = (mu1 ** 2 - mu2 ** 2) ** 2
        worst = max(worst, abs(det - target) / target)
        offplan = amat.copy()
        for (i, j), val in (((0, 2), -mu1), ((0, 3), -mu2), ((1, 2), mu2), ((1, 3), mu1)):
            offplan[i, j] -= val
            offplan[j, i] += val
        worst = max(worst, float(np.max(np.abs(offplan))) / mu1)
    return worst


CHECKS = {
    "symplectic": (check_symplectic, 1e-9, "max |D^t J D - J|"),
    "composition": (check_composition, 1e-10, "Hamiltonian chain rel. error"),
    "invariant": (check_invariant_set, 1e-7, "max |c_i| and p_theta drift"),
    "amatrix": (check_amatrix, 1e-9, "A-matrix restricted form rel. error"),
}


def cmd_verify(args) -> None:
    masses = _parse_masses(args.masses)
    _check_finite({"--mu1": args.mu1, "--mu2": args.mu2, "--tol": args.tol})
    reduction.check_momenta(args.mu1, args.mu2)
    names = [c.strip() for c in args.checks.split(",")] if args.checks != "all" \
        else list(CHECKS.keys())
    for name in names:
        if name not in CHECKS:
            raise ConfigError(f"unknown check {name!r}")
    failed = None
    lines = []
    for name in names:
        fn, tol, desc = CHECKS[name]
        err = fn(np.random.default_rng(args.seed), masses, args.mu1, args.mu2)
        tol = tol if args.tol is None else args.tol
        ok = err < tol
        lines.append(f"{name}: {desc} = {err:.3e} (tol {tol:.1e}) "
                     f"{'PASS' if ok else 'FAIL'}")
        if not ok and failed is None:
            failed = name
    with _open_out(args.out) as fh:
        for line in lines:
            fh.write(line + "\n")
    if failed:
        raise CheckFailed(f"first failing check: {failed}")


# --- equilibrium ---------------------------------------------------------------

def cmd_equilibrium(args) -> None:
    _check_finite({"-n": args.n, "-t": args.t, "-u": args.u})
    if args.isosceles:
        if args.n is None or args.t is None:
            raise ConfigError("--isosceles needs -n and -t")
        report = equilibria.isosceles_equilibrium(args.n, args.t)
    elif args.general:
        if args.masses is None or args.u is None:
            raise ConfigError("--general needs -m and -u")
        if args.dps < 0:
            raise ConfigError(f"--dps must be >= 0 (0 = double precision), got {args.dps}")
        masses = _parse_masses(args.masses)
        mm = masses.permuted(_parse_pair(args.pair))
        seed = equilibria.general_series_equilibrium(mm, args.u)
        report = equilibria.newton_equilibrium(
            mm, seed.mu1, seed.mu2, seed.q,
            dps=args.dps if args.dps > 0 else None)
    else:
        raise ConfigError("choose --isosceles or --general")
    with _open_out(args.out) as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")


# --- scan ----------------------------------------------------------------------

def cmd_scan(args) -> None:
    _check_finite({"-n": args.n})
    if args.region_map:
        if args.n_grid is None or args.t_grid is None:
            raise ConfigError("--region-map needs --n-grid and --t-grid")
        n_grid = _parse_grid(args.n_grid)
        t_grid = _parse_grid(args.t_grid)
        rows = []
        for n in n_grid:
            for t in t_grid:
                lab = equilibria.region_classification(n, t)
                rows.append((n, t, lab.p1, lab.p2, lab.name, int(lab.minimum)))
        with _open_out(args.out) as fh:
            if args.format == "json":
                json.dump([{"n": r[0], "t": r[1], "P1": r[2], "P2": r[3],
                            "region": r[4], "minimum": r[5]} for r in rows], fh)
                fh.write("\n")
            else:
                fh.write("n,t,P1,P2,region,minimum\n")
                for r in rows:
                    fh.write(f"{r[0]:.17g},{r[1]:.17g},{r[2]:.17g},{r[3]:.17g},"
                             f"{r[4]},{r[5]}\n")
        return
    if args.isosceles:
        if args.n is None or args.t_grid is None:
            raise ConfigError("isosceles scan needs -n and --t-grid")
        table = equilibria.isosceles_scan(args.n, _parse_grid(args.t_grid))
    elif args.general:
        if args.masses is None or args.u_grid is None:
            raise ConfigError("general scan needs -m and --u-grid")
        masses = _parse_masses(args.masses)
        table = equilibria.general_scan(masses, _parse_grid(args.u_grid),
                                        _parse_pair(args.pair))
    else:
        raise ConfigError("choose --isosceles, --general or --region-map")
    with _open_out(args.out) as fh:
        if args.format == "json":
            table.to_json(fh)
            fh.write("\n")
        else:
            table.to_csv(fh)


# --- integrate -------------------------------------------------------------------

def _integrator_config(args) -> dynamics.IntegratorConfig:
    return dynamics.IntegratorConfig(
        method=args.method,
        rel_tol=args.tol if args.tol is not None else 1e-10,
        abs_tol=(args.tol if args.tol is not None else 1e-10) * 1e-2,
        dt=args.dt,
        monitor_every=args.monitor_every,
    )


def cmd_integrate(args) -> None:
    masses = _parse_masses(args.masses)
    _check_finite({"--mu1": args.mu1, "--mu2": args.mu2, "--t-end": args.t_end,
                   "--dt": args.dt, "--tol": args.tol})
    q = np.array([_number(v) for v in args.q.split(",")])
    p = np.array([_number(v) for v in args.p.split(",")])
    if q.shape != (4,) or p.shape != (4,):
        raise ConfigError("-q and -p need four components each")
    if args.t_end <= 0:
        raise ConfigError("t-end must be positive")
    red = reduction.ReducedState(q, p, args.mu1, args.mu2)
    cfg = _integrator_config(args)

    if args.system == "reduced":
        field = dynamics.reduced_field(masses, args.mu1, args.mu2)
        z0 = np.concatenate([red.q, red.p])
        mons = dynamics.reduced_monitors(masses, args.mu1, args.mu2)
        labels = [f"q{i}" for i in range(1, 5)] + [f"p{i}" for i in range(1, 5)]
    elif args.system == "partial":
        field = dynamics.partial_field(masses)
        z0 = reduction.partial_to_array(reduction.embed_reduced(red))
        mons = dynamics.partial_monitors(masses, args.mu1, args.mu2)
        labels = ([f"q{i}" for i in range(1, 5)]
                  + ["psi1", "psi2", "theta1", "theta2"]
                  + [f"p{i}" for i in range(1, 5)]
                  + ["p_psi1", "p_psi2", "p_theta1", "p_theta2"])
    else:  # "full"
        field = dynamics.full_field(masses)
        z0 = reduction.full_to_array(
            reduction.lift_to_full(reduction.embed_reduced(red)))
        mons = dynamics.full_monitors(masses)
        labels = ([f"x1_{i}" for i in range(4)] + [f"x2_{i}" for i in range(4)]
                  + [f"y1_{i}" for i in range(4)] + [f"y2_{i}" for i in range(4)])

    rec = dynamics.integrate(field, z0, args.t_end, cfg, monitors=mons)
    report = (dynamics.compare_full_vs_reduced(masses, red, args.t_end, cfg)
              if args.compare else None)
    with _open_out(args.out) as fh:
        if args.format == "json":
            rec.to_json(fh, state_labels=labels)
            fh.write("\n")
        else:
            if rec.domain_exit:
                fh.write(f"# domain_exit: {rec.domain_exit} at t = {rec.exit_time:.17g}\n")
            rec.to_csv(fh, state_labels=labels)
        if report is not None:
            fh.write(f"# compare: max_qp_deviation = {report.max_qp_deviation:.17g}, "
                     f"max_invariant_residual = {report.max_invariant_residual:.17g}, "
                     f"max_mu_drift = {report.max_mu_drift:.17g}\n")


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threebody4d",
        description="Reduced three-body problem in R^4: verification, "
                    "equilibria, scans, integration.")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--out": dict(default=None, help="output path (default stdout)"),
        "--config": dict(default=None, help="key=value config file; flags win on conflict"),
        "--format": dict(choices=["csv", "json"], default="csv"),
        "--seed": dict(type=int, default=0, help="RNG seed"),
        "--tol": dict(type=float, default=None, help="override the default tolerance"),
    }

    def common(p, *extra):
        """--out and --config, plus the named flags of `flags`."""
        for name in ("--out", "--config") + extra:
            p.add_argument(name, **flags[name])

    pv = sub.add_parser("verify", help="run the reduction verification suites")
    common(pv, "--seed", "--tol")
    pv.add_argument("--checks", default="all",
                    help="comma list from: " + ",".join(CHECKS))
    pv.add_argument("-m", "--masses", default="1,1,1")
    pv.add_argument("--mu1", type=float, default=1.0)
    pv.add_argument("--mu2", type=float, default=0.3)
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("equilibrium", help="solve one relative equilibrium")
    common(pe)
    pe.add_argument("--isosceles", action="store_true")
    pe.add_argument("--general", action="store_true")
    pe.add_argument("-n", type=float, default=None, help="mass ratio m1/m")
    pe.add_argument("-t", type=float, default=None, help="shape parameter in (0,1)")
    pe.add_argument("-m", "--masses", default=None)
    pe.add_argument("-u", type=float, default=None, help="expansion parameter")
    pe.add_argument("--pair", default="2,3", help="which bodies form the binary")
    pe.add_argument("--dps", type=int, default=0,
                    help=f"decimal digits of the refinement, {equilibria.DPS_MIN} to "
                         f"{equilibria.DPS_MAX} (0 = double precision)")
    pe.set_defaults(func=cmd_equilibrium)

    ps = sub.add_parser("scan", help="energy-momentum or region-map scans")
    common(ps, "--format")
    ps.add_argument("--isosceles", action="store_true")
    ps.add_argument("--general", action="store_true")
    ps.add_argument("--region-map", action="store_true")
    ps.add_argument("-n", type=float, default=None)
    ps.add_argument("-m", "--masses", default=None)
    ps.add_argument("--pair", default="2,3")
    ps.add_argument("--t-grid", default=None, help="start:stop:count[:log]")
    ps.add_argument("--u-grid", default=None, help="start:stop:count[:log]")
    ps.add_argument("--n-grid", default=None, help="start:stop:count[:log]")
    ps.set_defaults(func=cmd_scan)

    pi = sub.add_parser("integrate", help="integrate a trajectory with monitors")
    common(pi, "--format", "--tol")
    pi.add_argument("--system", choices=["reduced", "partial", "full"],
                    default="reduced")
    pi.add_argument("-m", "--masses", default="1,1,1")
    pi.add_argument("--mu1", type=float, default=1.0)
    pi.add_argument("--mu2", type=float, default=0.3)
    pi.add_argument("-q", default="1,0,0,1", help="q1,q2,q3,q4")
    pi.add_argument("-p", default="0,0,0,0", help="p1,p2,p3,p4")
    pi.add_argument("--t-end", type=float, default=1.0)
    pi.add_argument("--method", choices=["dopri", "midpoint"], default="dopri")
    pi.add_argument("--dt", type=float, default=1e-3)
    pi.add_argument("--monitor-every", type=int, default=1)
    pi.add_argument("--compare", action="store_true",
                    help="append a full-vs-reduced deviation report")
    pi.set_defaults(func=cmd_integrate)
    parser.sub_map = {"verify": pv, "equilibrium": pe, "scan": ps, "integrate": pi}
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become parse defaults of the subcommand, so
            # explicit flags still win
            file_vals = {k: _coerce(v) for k, v in _load_config_file(args.config).items()}
            sub = parser.sub_map[args.command]
            known = {a.dest for a in sub._actions}
            for key in file_vals:
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
            sub.set_defaults(**file_vals)
            args = parser.parse_args(argv)
            # argparse checks `choices` only for command-line text, not for
            # the defaults a config file sets
            for action in sub._actions:
                if action.choices is not None and action.dest in file_vals:
                    val = getattr(args, action.dest)
                    if val not in action.choices:
                        raise ConfigError(f"config {action.dest} = {val!r} is not one of "
                                          f"{', '.join(action.choices)}")
        args.func(args)
    except CheckFailed as exc:
        print(exc, file=sys.stderr)
        return EXIT_CHECK_FAILED
    except SOLVER_FAILURES as exc:
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValueError, OSError) as exc:
        print(f"invalid config: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
