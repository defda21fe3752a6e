"""Configuration-driven experiment runner.

Configs are flat INI-style key-value trees with three fixed sections
(equation, experiment, output) plus optional per-experiment override
sections named ``experiment.<name>``.  Values hold numbers only, with
matrices listed row by row separated by ';'; no expressions.  Seeds are
explicit, every output byte is a pure function of (config, seeds), and the
manifest alone suffices to re-run and reproduce any artifact.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis
from .errors import BlowUpError, ConfigurationError, HypothesisError
from .model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                    Nonlinearity, check_dissipativity_triplet)
from .noise import TimeGrid, shared_draws
from .space import SpectralOperator, dirichlet_laplacian
from .textio import Record, fmt, write_manifest, write_plot_data, write_report

__all__ = ["RunConfig", "parse_config", "run", "main", "EXPERIMENTS"]


def _floats(text: str, label: str = "") -> list:
    try:
        return [float(tok) for tok in text.split()]
    except ValueError as exc:
        raise ConfigurationError(f"{label}expected numbers, got {text!r}: {exc}") from None


def _number(section: dict, name: str, key: str, kind, default=None, minimum=None):
    """``key`` of section [name] as ``kind``; configparser stores keys in lower case."""
    raw = section.get(key.lower(), default)
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigurationError(f"[{name}] {key}: expected {kind.__name__}, got {raw!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"[{name}] {key} must be >= {minimum}, got {value}")
    return value


def _positives(section: dict, name: str, key: str, noun: str = "step sizes") -> tuple:
    """The ``noun`` listed under ``key`` of section [name]; each must be finite and > 0."""
    values = tuple(_floats(section.get(key, ""), f"[{name}] {key}: "))
    for value in values:
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigurationError(f"[{name}] {key}: {noun} must be finite and > 0, "
                                     f"got {value}")
    return values


def _seed(value: int, source: str = "") -> int:
    """``value`` if it is a run seed in [0, 2**64).

    Member seeds up to seed + 2**31 + members then stay in the [0, 2**128)
    that ``noise`` hashes.
    """
    if not 0 <= value < 2**64:
        raise ConfigurationError(f"{source}[experiment] seed must be in [0, 2**64), got {value}")
    return value


def _matrix(text: str, rows: int, cols: int, key: str) -> np.ndarray:
    if text.strip() == "zeros":
        return np.zeros((rows, cols))
    parsed = [_floats(row) for row in text.split(";")]
    arr = np.array(parsed, dtype=float)
    if arr.shape != (rows, cols):
        raise ConfigurationError(f"{key}: expected a {rows}x{cols} matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration: the equation, the experiment plan, the output plan."""

    equation: EquationSpec
    experiments: tuple
    seed: int
    dt_list: tuple
    epsilons: tuple
    ensemble_coupled: int
    ensemble_paths: int
    output_dir: Path
    formats: tuple
    margin: float
    config_sha256: str
    sections: dict = field(repr=False, default_factory=dict)

    def opt(self, experiment: str, key: str, default):
        """Typed per-experiment option with fallback to a default."""
        raw = self.sections.get(f"experiment.{experiment}", {}).get(key)
        if raw is None:
            return default
        if isinstance(default, bool):
            return raw.strip().lower() in ("1", "true", "yes")
        if isinstance(default, (int, float)):
            return _number({key: raw}, f"experiment.{experiment}", key, type(default))
        if isinstance(default, (tuple, list)):
            return tuple(_floats(raw))
        return raw.strip()

    def equation_for(self, experiment: str) -> EquationSpec:
        """Equation with the per-experiment override keys applied."""
        overrides = self.sections.get(f"experiment.{experiment}", {})
        merged = dict(self.sections["equation"])
        for key in ("f_coeffs", "eta", "alpha", "u0", "T", "q", "b_base", "b_scale",
                    "z_atoms", "z_weights", "g_base", "g_scale"):
            if key.lower() in overrides:
                merged[key.lower()] = overrides[key.lower()]
        return _build_equation(merged, f"experiment.{experiment}")


def _build_equation(eq: dict, name: str = "equation") -> EquationSpec:
    """The equation of the keys in ``eq``; messages name the keys as in section [name]."""
    if "n" not in eq:
        raise ConfigurationError(f"[{name}] n is required")
    n = _number(eq, name, "n", int, minimum=1)
    operator = eq.get("operator", "dirichlet_laplacian").strip()
    if operator == "dirichlet_laplacian":
        A = dirichlet_laplacian(n)
    elif operator == "diagonal":
        lam = _floats(eq.get("eigenvalues", ""))
        if len(lam) != n:
            raise ConfigurationError(f"[{name}] eigenvalues: expected {n} values, got {len(lam)}")
        A = SpectralOperator.diagonal(lam, _number(eq, name, "weight", float, "1.0"))
    else:
        raise ConfigurationError(f"[{name}] operator: unknown choice {operator!r}")

    f_coeffs = tuple(_floats(eq.get("f_coeffs", "")))
    F = Nonlinearity(f_coeffs, _number(eq, name, "eta", float, "0.0"))

    q = np.array(_floats(eq.get("q", "1.0")))
    if np.any(q < 0.0):
        raise ConfigurationError(f"[{name}] q: covariance weights must be nonnegative, got {q.tolist()}")
    d = q.shape[0]
    b_base = _matrix(eq.get("b_base", "zeros"), n, d, f"[{name}] b_base")
    b_scale = np.array(_floats(eq.get("b_scale", " ".join(["0"] * d))))
    if b_scale.shape != (d,):
        raise ConfigurationError(f"[{name}] b_scale: expected {d} values, got {b_scale.shape}")
    B = DiffusionCoefficient(b_base, b_scale, q)

    atoms = _floats(eq.get("z_atoms", "0.0"))
    weights = _floats(eq.get("z_weights", "0.0"))
    if any(m < 0.0 for m in weights):
        raise ConfigurationError(f"[{name}] z_weights: weights must be nonnegative, got {weights}")
    marks = MarkSpace(tuple(atoms), tuple(weights))
    j = marks.atom_count
    g_base = _matrix(eq.get("g_base", "zeros"), n, j, f"[{name}] g_base")
    g_scale = np.array(_floats(eq.get("g_scale", " ".join(["0"] * j))))
    if g_scale.shape != (j,):
        raise ConfigurationError(f"[{name}] g_scale: expected {j} values, got {g_scale.shape}")
    G = JumpCoefficient(g_base, g_scale, marks)

    u0_raw = eq.get("u0")
    if u0_raw is None:
        raise ConfigurationError(f"[{name}] u0 is required")
    u0 = np.array(_floats(u0_raw))
    if u0.shape != (n,):
        raise ConfigurationError(f"[{name}] u0: expected {n} values, got {u0.shape[0]}")
    T = _number(eq, name, "T", float, "1.0")
    alpha = _number(eq, name, "alpha", float, "0.0")
    try:
        return EquationSpec(A=A, F=F, B=B, G=G, u0=u0, T=T, alpha=alpha)
    except ValueError as exc:
        raise ConfigurationError(f"[{name}] {exc}") from None


def parse_config(path) -> RunConfig:
    """Parse and eagerly validate a run configuration.

    Structural invariants are checked here (nonnegative covariance and mark
    weights, finite positive step sizes and regularization parameters,
    dyadic step list, known experiment names and sections, explicit seed in
    [0, 2**64)) and the exact dissipativity margin of the configured
    equation is recorded.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw_bytes = path.read_bytes()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    try:
        parser.read_string(raw_bytes.decode())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from None
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if "equation" not in sections:
        raise ConfigurationError(f"{path}: missing [equation] section")
    exp = sections.get("experiment", {})
    if "seed" not in exp:
        raise ConfigurationError("[experiment] seed is required (no wall-clock seeding)")
    seed = _seed(_number(exp, "experiment", "seed", int))

    spec = _build_equation(sections["equation"])

    names = tuple(exp.get("experiments", "").split())
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(
            f"[experiment] experiments: unknown names {unknown}; known: {sorted(EXPERIMENTS)}")
    for name, section in sections.items():
        if not name.startswith("experiment."):
            continue
        if name[len("experiment."):] not in EXPERIMENTS:
            raise ConfigurationError(
                f"[{name}]: unknown experiment section; known: {sorted(EXPERIMENTS)}")
        for key in ("paths", "ensemble", "instances"):
            if key in section:
                _number(section, name, key, int, minimum=1)
        for key, noun in (("dt", "step sizes"), ("epsilon", "regularization parameters")):
            if key in section and len(_positives(section, name, key, noun)) != 1:
                raise ConfigurationError(f"[{name}] {key}: expected one number, "
                                         f"got {section[key]!r}")
        _positives(section, name, "dts")
        _positives(section, name, "epsilons", "regularization parameters")

    dt_list = _positives(exp, "experiment", "dt_list")
    if dt_list:
        dts = sorted(dt_list, reverse=True)
        for a, b in zip(dts, dts[1:]):
            if abs(a / b - 2.0) > 1e-12:
                raise ConfigurationError(f"[experiment] dt_list must be dyadic, got {dt_list}")
    epsilons = _positives(exp, "experiment", "epsilons", "regularization parameters")
    ensemble_coupled = _number(exp, "experiment", "ensemble_coupled", int, "1000", minimum=1)
    ensemble_paths = _number(exp, "experiment", "ensemble_paths", int, "10000", minimum=1)

    out = sections.get("output", {})
    output_dir = Path(out.get("directory", "out"))
    formats = tuple(out.get("formats", "report plotdata").split())
    for fmt_name in formats:
        if fmt_name not in ("report", "plotdata"):
            raise ConfigurationError(f"[output] formats: unknown format {fmt_name!r}")

    return RunConfig(
        equation=spec,
        experiments=names,
        seed=seed,
        dt_list=dt_list,
        epsilons=epsilons,
        ensemble_coupled=ensemble_coupled,
        ensemble_paths=ensemble_paths,
        output_dir=output_dir,
        formats=formats,
        margin=check_dissipativity_triplet(spec),
        config_sha256=hashlib.sha256(raw_bytes).hexdigest(),
        sections=sections,
    )


# ---------------------------------------------------------------------------
# Experiment builders: RunConfig -> report
# ---------------------------------------------------------------------------


def _exp_resolvent_algebra(cfg: RunConfig):
    trials = cfg.opt("resolvent_algebra", "trials", 100)
    tol = cfg.opt("resolvent_algebra", "tol", 1e-9)
    return analysis.resolvent_algebra_check(cfg.equation.A, trials, cfg.seed, tol)


def _exp_trotter_kato(cfg: RunConfig):
    """Linear additive-noise equation with the spectrum rescaled so the
    regularization sweep stays inside its linear response regime."""
    base = cfg.equation
    lambda1 = cfg.opt("trotter_kato", "lambda1", 0.5)
    noise_amp = cfg.opt("trotter_kato", "noise_amp", 0.2)
    dt = cfg.opt("trotter_kato", "dt", 2.0 ** -10)
    horizon = cfg.opt("trotter_kato", "t", 1.0)
    epsilons = cfg.opt("trotter_kato", "epsilons", cfg.epsilons or
                       (0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625))
    A = base.A.scaled(lambda1 / float(base.A.eigenvalues[0]))
    e1 = A.eigenvectors[:, 0]
    B = DiffusionCoefficient.constant(noise_amp * e1[:, None], np.array([1.0]))
    G = JumpCoefficient.zero(A.dim)
    spec = EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G, u0=e1, T=horizon, alpha=0.0)
    return analysis.yosida_convergence_experiment(spec, cfg.seed, dt, epsilons)


def _step_integrand(cfg: RunConfig, name: str, columns: int, amp: float):
    steps = cfg.opt(name, "steps", 16)
    horizon = cfg.opt(name, "t", 1.0)
    grid = TimeGrid(horizon, steps)
    rng = np.random.default_rng(cfg.seed)
    return grid, amp * rng.standard_normal((steps, cfg.equation.A.dim, columns))


def _exp_wiener_isometry(cfg: RunConfig):
    q = cfg.equation.B.q
    grid, phi = _step_integrand(cfg, "wiener_isometry", q.shape[0],
                                cfg.opt("wiener_isometry", "amplitude", 0.5))
    paths = cfg.opt("wiener_isometry", "paths", cfg.ensemble_paths)
    return analysis.wiener_isometry_experiment(phi, q, grid, grid.horizon, paths,
                                               cfg.seed, cfg.equation.space)


def _exp_poisson_isometry(cfg: RunConfig):
    marks = cfg.equation.marks
    grid, g = _step_integrand(cfg, "poisson_isometry", marks.atom_count,
                              cfg.opt("poisson_isometry", "amplitude", 0.5))
    paths = cfg.opt("poisson_isometry", "paths", cfg.ensemble_paths)
    return analysis.poisson_isometry_experiment(g, marks, grid, grid.horizon, paths,
                                                cfg.seed, cfg.equation.space)


def _exp_compensator(cfg: RunConfig):
    marks = cfg.equation.marks
    grid, D = _step_integrand(cfg, "compensator", marks.atom_count,
                              cfg.opt("compensator", "amplitude", 0.5))
    paths = cfg.opt("compensator", "paths", cfg.ensemble_paths)
    return analysis.compensator_experiment(D, marks, grid, grid.horizon, paths,
                                           cfg.seed, cfg.equation.space)


def _exp_regularization_identity(cfg: RunConfig):
    eq = cfg.equation
    return analysis.regularization_identity_experiment(
        eq.A, eq.marks, eq.B.q,
        cfg.opt("regularization_identity", "instances", 20),
        cfg.seed,
        dt=cfg.opt("regularization_identity", "dt", 2.0 ** -6),
        T=cfg.opt("regularization_identity", "t", 0.25),
        epsilon=cfg.opt("regularization_identity", "epsilon", 0.3),
        tol=cfg.opt("regularization_identity", "tol", 1e-9),
    )


def _exp_energy_identity(cfg: RunConfig):
    n = cfg.opt("energy_identity", "n", 5)
    A = dirichlet_laplacian(n)
    dts = cfg.opt("energy_identity", "dts", cfg.dt_list or
                  (2.0 ** -7, 2.0 ** -8, 2.0 ** -9, 2.0 ** -10))
    return analysis.energy_identity_experiment(
        A, cfg.equation.marks, cfg.equation.B.q, dts,
        cfg.opt("energy_identity", "t", 0.5),
        cfg.opt("energy_identity", "paths", 100),
        cfg.seed,
        g_amp=cfg.opt("energy_identity", "g_amp", 1.0),
        c_amp=cfg.opt("energy_identity", "c_amp", 0.3),
        d_amp=cfg.opt("energy_identity", "d_amp", 0.3),
    )


def _exp_coupling(cfg: RunConfig):
    spec = cfg.equation_for("coupling")
    dts = cfg.opt("coupling", "dts", cfg.dt_list)
    pair = (cfg.opt("coupling", "scheme_a", "exp_euler"),
            cfg.opt("coupling", "scheme_b", "resolvent_implicit"))
    return analysis.coupling_uniqueness_experiment(spec, cfg.seed, dts, pair)


def _exp_contraction(cfg: RunConfig):
    spec = cfg.equation_for("contraction")
    raw_b = cfg.sections.get("experiment.contraction", {}).get("u0_b")
    if raw_b is None:
        raise ConfigurationError("[experiment.contraction] u0_b is required")
    u0_b = np.array(_floats(raw_b))
    return analysis.contraction_experiment(
        spec, spec.u0, u0_b,
        cfg.opt("contraction", "ensemble", cfg.ensemble_coupled),
        cfg.seed,
        dt=cfg.opt("contraction", "dt", 2.0 ** -7),
        scheme=cfg.opt("contraction", "scheme", "exp_euler"),
    )


def _stability_pair(cfg: RunConfig, name: str):
    spec1 = cfg.equation_for(name)
    amp = cfg.opt(name, "db_amp", 0.05)
    # perturbation pattern: amp times the first eigenvector, first noise column
    delta = np.zeros(spec1.B.base.shape)
    delta[:, 0] = amp * spec1.A.eigenvectors[:, 0]
    b2 = DiffusionCoefficient(spec1.B.base + delta, spec1.B.state_scale, spec1.B.q)
    return spec1, delta, b2


def _exp_stability(cfg: RunConfig):
    spec1, _, b2 = _stability_pair(cfg, "stability")
    spec2 = spec1.with_data(B=b2)
    return analysis.stability_estimate_experiment(
        spec1, spec2,
        cfg.opt("stability", "ensemble", cfg.ensemble_coupled),
        cfg.seed,
        dt=cfg.opt("stability", "dt", 2.0 ** -7),
        scheme=cfg.opt("stability", "scheme", "exp_euler"),
        continuity_factor=cfg.opt("stability", "continuity_factor", 5.0),
    )


def _exp_cauchy(cfg: RunConfig):
    spec, delta, _ = _stability_pair(cfg, "cauchy")
    levels = cfg.opt("cauchy", "levels", 5)
    sequence = []
    for k in range(levels):
        b_k = DiffusionCoefficient(spec.B.base + 2.0 ** -k * delta, spec.B.state_scale, spec.B.q)
        sequence.append((spec.u0, b_k, spec.G))
    return analysis.generalized_solution_cauchy(
        spec, sequence, cfg.seed,
        ensemble_size=cfg.opt("cauchy", "ensemble", cfg.ensemble_coupled),
        dt=cfg.opt("cauchy", "dt", 2.0 ** -7),
        scheme=cfg.opt("cauchy", "scheme", "exp_euler"),
    )


def _exp_weak_residual(cfg: RunConfig):
    spec = cfg.equation_for("weak_residual")
    dts = cfg.opt("weak_residual", "dts", cfg.dt_list)
    return analysis.weak_residual_experiment(
        spec, cfg.seed, dts,
        epsilon=cfg.opt("weak_residual", "epsilon", 0.1),
        k_max=cfg.opt("weak_residual", "k_max", 8),
        scheme=cfg.opt("weak_residual", "scheme", "resolvent_implicit"),
    )


EXPERIMENTS = {
    "resolvent_algebra": _exp_resolvent_algebra,
    "trotter_kato": _exp_trotter_kato,
    "wiener_isometry": _exp_wiener_isometry,
    "poisson_isometry": _exp_poisson_isometry,
    "compensator": _exp_compensator,
    "regularization_identity": _exp_regularization_identity,
    "energy_identity": _exp_energy_identity,
    "coupling": _exp_coupling,
    "contraction": _exp_contraction,
    "stability": _exp_stability,
    "cauchy": _exp_cauchy,
    "weak_residual": _exp_weak_residual,
}


def _blowup_report(name: str, exc: BlowUpError) -> analysis.ExperimentReport:
    """INCONCLUSIVE report of an experiment whose solver blew up, recording where."""
    row = Record("blow_up", f"step={exc.step}", exc.time, 0.0, analysis.INCONCLUSIVE)
    return analysis.ExperimentReport(name, analysis.INCONCLUSIVE, (row,))


def run(config: RunConfig, verbose: bool = False) -> int:
    """Execute the configured experiments and write artifacts.

    One report file per experiment plus a manifest; exit status is nonzero
    iff any experiment FAILED (INCONCLUSIVE exits zero with a warning).  A
    solver blow-up makes its experiment INCONCLUSIVE, with the step and time
    recorded, and the run goes on.  The experiments share their noise draws
    (``noise.shared_draws``), which are dropped when the run ends.  Partially
    written artifacts are removed when a run aborts; an i/o failure is
    reported on one stderr line and re-raised.
    """
    outdir = config.output_dir
    written = []
    verdicts = {}
    try:
        with shared_draws():
            for name in config.experiments:
                if verbose:
                    print(f"running {name} ...", flush=True)
                try:
                    report = EXPERIMENTS[name](config)
                except BlowUpError as exc:
                    print(f"warning: {name}: {exc}", file=sys.stderr)
                    report = _blowup_report(name, exc)
                if "report" in config.formats:
                    written.append(write_report(report, outdir / f"{name}.report.txt"))
                if "plotdata" in config.formats:
                    written.extend(write_plot_data(report, outdir))
                verdicts[name] = report.verdict
                if verbose:
                    print(f"  {name}: {report.verdict}")
        entries = {
            "version": __version__,
            "config_sha256": config.config_sha256,
            "seed": config.seed,
            "experiments": " ".join(config.experiments) if config.experiments else "-",
            "dissipativity_margin": fmt(config.margin),
        }
        for name in config.experiments:
            entries[f"verdict.{name}"] = verdicts[name]
        failed = [n for n, v in verdicts.items() if v == analysis.FAIL]
        inconclusive = [n for n, v in verdicts.items() if v == analysis.INCONCLUSIVE]
        entries["exit_status"] = 1 if failed else 0
        written.append(write_manifest(entries, outdir / "manifest.txt"))
    except Exception as exc:
        for path in written:
            try:
                path.unlink()
            except OSError:
                pass
        if isinstance(exc, OSError):
            print(f"error: i/o failure while writing artifacts: {exc}", file=sys.stderr)
        raise
    if inconclusive:
        print(f"warning: inconclusive experiments: {', '.join(inconclusive)}", file=sys.stderr)
    if failed:
        print(f"failed experiments: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="mildsde",
        description="Run configured experiments for dissipative stochastic evolution equations.",
    )
    parser.add_argument("config", help="path to the run configuration file")
    parser.add_argument("--output-dir", help="override the configured output directory")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--only", help="comma-separated experiment-name filter")
    parser.add_argument("-v", "--verbose", action="store_true", help="progress output")
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config)
        replacements = {}
        if args.output_dir is not None:
            replacements["output_dir"] = Path(args.output_dir)
        if args.seed is not None:
            replacements["seed"] = _seed(args.seed, "--seed: ")
        if args.only is not None:
            wanted = tuple(name for name in args.only.split(",") if name)
            unknown = [n for n in wanted if n not in EXPERIMENTS]
            if unknown:
                raise ConfigurationError(f"--only: unknown experiments {unknown}")
            replacements["experiments"] = wanted
        if replacements:
            from dataclasses import replace
            config = replace(config, **replacements)
        if args.verbose:
            print(f"dissipativity margin: {config.margin:.6g}")
        status = run(config, verbose=args.verbose)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        sys.exit(2)
    except HypothesisError as exc:
        print(f"hypothesis error: {exc}", file=sys.stderr)
        sys.exit(2)
    except OSError:
        sys.exit(2)  # run has printed the one-line i/o error
    sys.exit(status)


if __name__ == "__main__":
    main()
