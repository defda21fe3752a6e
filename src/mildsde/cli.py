"""Configuration-driven experiment runner.

Configs are flat INI-style key-value trees with three fixed sections
(equation, experiment, output) plus optional per-experiment override
sections named ``experiment.<name>``; ``OPTIONS`` declares every key.  Values
hold numbers only, with matrices listed row by row separated by ';'.  Seeds are
explicit, and for one numpy build and one BLAS kernel class every output byte
is a pure function of (config, seeds): the manifest alone re-runs and reproduces
any artifact.  Another kernel class moves low-order digits, never a verdict.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import analysis
from .errors import BlowUpError, ConfigurationError, HypothesisError
from .model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                    Nonlinearity, check_dissipativity_triplet)
from .noise import TimeGrid, data_rng, shared_draws
from .space import SpectralOperator, dirichlet_laplacian
from .textio import Record, fmt, write_manifest, write_plot_data, write_report

__all__ = ["RunConfig", "parse_config", "run", "main", "EXPERIMENTS", "OPTIONS", "OVERRIDES"]


# Value kinds.  Each reads the text of one key, given the values already read in
# its section (table order puts n, q, z_atoms and the horizons first), and raises
# ValueError saying what is wrong; the reader adds "[section] key".


def _numbers(text: str) -> list:
    try:
        return list(map(float, text.split()))
    except ValueError:
        raise ValueError(f"expected numbers, got {text!r}") from None


def _number(kind=float, low=None, high: str | int = ""):
    """An int, or a finite float; >= low for an int and > low for a float, and
    <= ``high``, a number or the name of a key read before."""
    def parse(text, values):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"expected {noun}, got {text!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValueError(f"must be finite, got {value}")
        if low is not None and (value < low if kind is int else value <= low):
            raise ValueError(f"must be {'>=' if kind is int else '>'} {low}, got {value}")
        top = values[high] if isinstance(high, str) and high else high
        if top and value > top:
            named = f"{high} = " if isinstance(high, str) else ""
            raise ValueError(f"must be <= {named}{top}, got {value}")
        return value
    return parse


def _size(values: dict, dim: str):
    """n, d = len(q) or J = len(z_atoms) of the values read so far; None before."""
    key = {"n": "n", "d": "q", "J": "z_atoms"}[dim]
    return None if key not in values else values["n"] if dim == "n" else len(values[key])


def _vector(dim: str = "", nonnegative: bool = False):
    """Finite numbers; with ``dim``, n, d or J of them, or the word zeros.  The key
    that fixes d or J (read before it is known) needs one value at least."""
    def parse(text, values):
        size = _size(values, dim) if dim else None
        if size is not None and text.strip() == "zeros":
            return (0.0,) * size
        numbers = _numbers(text)
        if size is not None and len(numbers) != size:
            raise ValueError(f"expected {size} values, got {len(numbers)}")
        if dim and not numbers:
            raise ValueError("expected at least one value")
        if not all(map(math.isfinite, numbers)) or (nonnegative and min(numbers, default=0) < 0):
            raise ValueError(f"must be finite{' and >= 0' if nonnegative else ''}, got {numbers}")
        return tuple(numbers)
    return parse


def _matrix(dim: str):
    """An n x d or n x J matrix listed row by row, rows separated by ';', or zeros."""
    def parse(text, values):
        shape = (values["n"], _size(values, dim))
        if text.strip() == "zeros":
            return np.zeros(shape)
        rows = [_numbers(row) for row in text.split(";")]
        if (len(rows), *{len(row) for row in rows}) != shape:
            raise ValueError(f"expected a {shape[0]}x{shape[1]} matrix, got {len(rows)} rows "
                             f"of {sorted({len(row) for row in rows})} values")
        matrix = np.array(rows)
        if not np.isfinite(matrix).all():
            raise ValueError("must be finite")
        return matrix
    return parse


def _positives(one: bool = False, steps: bool = False, horizon: str = "", minimum: int = 0):
    """Numbers, each finite and > 0, exactly one if ``one`` and at least ``minimum``;
    step sizes checked by ``analysis.step_sizes`` (dyadic, dividing key ``horizon``
    if named)."""
    def parse(text, values):
        numbers = _numbers(text)
        if one and len(numbers) != 1:
            raise ValueError(f"expected one number, got {text!r}")
        if steps:
            analysis.step_sizes(numbers, values[horizon] if horizon else None, minimum)
        elif not all(math.isfinite(e) and e > 0.0 for e in numbers):
            raise ValueError(f"regularization parameters must be finite and > 0, got {numbers}")
        elif len(numbers) < minimum:
            raise ValueError(f"must list at least {minimum}, got {len(numbers)}")
        return numbers[0] if one else tuple(numbers)
    return parse


def _choice(*options, many: bool = False):
    """One of ``options``, or a list of them if ``many``."""
    def parse(text, values):
        words = text.split()
        unknown = [w for w in words if w not in options] if many or len(words) == 1 else [text]
        if unknown:
            raise ValueError(f"unknown choice {unknown[0]!r}; known: {sorted(options)}")
        return tuple(words) if many else words[0]
    return parse


def _eigenvalues(text, values):
    """The n eigenvalues, each >= 0, of operator = diagonal; the Laplacian has its own."""
    return _vector("n" if values["operator"] == "diagonal" else "", True)(text, values)


def _seed(text, values=None) -> int:
    """A run seed in [0, 2**64): member seeds up to seed + 2**31 + members then
    stay in the [0, 2**128) that ``noise`` hashes."""
    value = _number(int)(text, values)
    if not 0 <= value < 2**64:
        raise ValueError(f"must be in [0, 2**64), got {value}")
    return value


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Validated configuration: the equation, the experiment plan, the output plan.

    ``options`` maps each experiment that runs or has a section to the typed
    value of every key of its section (``OPTIONS``), [equation] keys included
    under an override section."""

    equation: EquationSpec
    experiments: tuple
    seed: int
    output_dir: Path
    formats: tuple
    margin: float
    config_sha256: str
    options: dict = field(repr=False)

    def equation_for(self, experiment: str) -> EquationSpec:
        """Equation with the keys of section [experiment.<experiment>] applied."""
        return _equation(self.options[experiment], self.equation.A)


def _equation(values: dict, A: SpectralOperator) -> EquationSpec:
    """The equation of the [equation] keys in ``values`` on operator ``A``."""
    marks = MarkSpace(values["z_atoms"], values["z_weights"])
    return EquationSpec(A, Nonlinearity(values["f_coeffs"], values["eta"]),
                        DiffusionCoefficient(values["b_base"], values["b_scale"], values["q"]),
                        JumpCoefficient(values["g_base"], values["g_scale"], marks),
                        values["u0"], values["T"], values["alpha"])


# ---------------------------------------------------------------------------
# Experiment builders: RunConfig -> report
# ---------------------------------------------------------------------------


_ISOMETRY_AMPLITUDE = 0.5  # scale of the standard normal isometry integrands
_DB_AMP = 0.05             # stability and cauchy: scale of the level-0 change to B


def _exp_resolvent_algebra(cfg: RunConfig):
    return analysis.resolvent_algebra_check(cfg.equation.A,
                                            cfg.options["resolvent_algebra"]["trials"], cfg.seed)


def _trotter_kato_operator(A: SpectralOperator, opt: dict) -> SpectralOperator:
    """A rescaled so that its first eigenvalue is ``lambda1``, which keeps the
    regularization sweep inside its linear response regime."""
    return A.scaled(opt["lambda1"] / float(A.eigenvalues[0]))


def _exp_trotter_kato(cfg: RunConfig):
    """Linear additive-noise equation on the rescaled operator."""
    opt = cfg.options["trotter_kato"]
    A = _trotter_kato_operator(cfg.equation.A, opt)
    e1 = A.eigenvectors[:, 0]
    B = DiffusionCoefficient.constant(opt["noise_amp"] * e1[:, None], np.array([1.0]))
    G = JumpCoefficient.zero(A.dim)
    spec = EquationSpec(A=A, F=Nonlinearity.zero(), B=B, G=G, u0=e1, T=opt["t"], alpha=0.0)
    return analysis.yosida_convergence_experiment(spec, cfg.seed, opt["dt"], opt["epsilons"])


def _isometry(name: str, experiment, coefficient: str):
    """Builder of an isometry section: a random step integrand against B's or G's noise."""
    def build(cfg: RunConfig):
        opt, eq = cfg.options[name], cfg.equation
        grid = TimeGrid(opt["t"], opt["steps"])
        # member 0's Wiener path draws from default_rng(seed), its jump path does not
        rng = data_rng(cfg.seed) if coefficient == "B" else np.random.default_rng(cfg.seed)
        integrand = _ISOMETRY_AMPLITUDE * rng.standard_normal(
            (grid.steps, eq.A.dim, getattr(eq, coefficient).shape[1]))
        noise = eq.B.q if coefficient == "B" else eq.marks
        return experiment(integrand, noise, grid, opt["paths"], cfg.seed, eq.space)
    return build


def _exp_regularization_identity(cfg: RunConfig):
    opt = cfg.options["regularization_identity"]
    return analysis.regularization_identity_experiment(
        cfg.equation.A, cfg.equation.marks, cfg.equation.B.q, opt["instances"], cfg.seed,
        dt=opt["dt"], T=opt["t"], epsilon=opt["epsilon"])


def _exp_energy_identity(cfg: RunConfig):
    opt = cfg.options["energy_identity"]
    return analysis.energy_identity_experiment(
        dirichlet_laplacian(opt["n"]), cfg.equation.marks, cfg.equation.B.q, opt["dts"],
        opt["t"], opt["paths"], cfg.seed)


def _exp_coupling(cfg: RunConfig):
    opt = cfg.options["coupling"]
    return analysis.coupling_uniqueness_experiment(
        cfg.equation_for("coupling"), cfg.seed, opt["dts"], (opt["scheme_a"], opt["scheme_b"]))


def _exp_contraction(cfg: RunConfig):
    opt = cfg.options["contraction"]
    spec = cfg.equation_for("contraction")
    return analysis.contraction_experiment(spec, opt["u0_b"], opt["ensemble"], cfg.seed,
                                           dt=opt["dt"])


def _perturbed(cfg: RunConfig, name: str):
    """The section's equation, and k -> its B with 2**-k * _DB_AMP times the first
    eigenvector added to the first noise column."""
    spec = cfg.equation_for(name)
    delta = np.zeros(spec.B.base.shape)
    delta[:, 0] = _DB_AMP * spec.A.eigenvectors[:, 0]
    return spec, lambda k: DiffusionCoefficient(spec.B.base + 2.0 ** -k * delta,
                                                spec.B.state_scale, spec.B.q)


def _shared_coupled_solve(cfg: RunConfig):
    """When stability and cauchy both run on equal sections, step the chain
    [spec, moved(0), ..., moved(L-1)] once, keeping its pair moments in the run
    memo: stability reads pair 0 and cauchy pairs 1..L-1, so neither steps again.
    After a blow-up each steps its own pairs, so each reports its own."""
    if not {"stability", "cauchy"} <= set(cfg.experiments):
        return
    opt = cfg.options["cauchy"]
    spec, moved = _perturbed(cfg, "cauchy")
    if (cfg.equation_for("stability").payload() != spec.payload()
            or any(cfg.options["stability"][k] != opt[k] for k in ("dt", "ensemble"))):
        return
    chain = [spec] + [spec.with_data(B=moved(k)) for k in range(opt["levels"])]
    try:
        analysis._coupled_moments(spec, chain, opt["dt"], cfg.seed, opt["ensemble"])()
    except BlowUpError:
        pass


def _exp_stability(cfg: RunConfig):
    _shared_coupled_solve(cfg)
    opt = cfg.options["stability"]
    spec, moved = _perturbed(cfg, "stability")
    return analysis.stability_estimate_experiment(spec, spec.with_data(B=moved(0)),
                                                  opt["ensemble"], cfg.seed, dt=opt["dt"])


def _exp_cauchy(cfg: RunConfig):
    _shared_coupled_solve(cfg)
    opt = cfg.options["cauchy"]
    spec, moved = _perturbed(cfg, "cauchy")
    sequence = [(spec.u0, moved(k), spec.G) for k in range(opt["levels"])]
    return analysis.generalized_solution_cauchy(spec, sequence, cfg.seed,
                                                ensemble_size=opt["ensemble"], dt=opt["dt"])


def _exp_weak_residual(cfg: RunConfig):
    opt = cfg.options["weak_residual"]
    return analysis.weak_residual_experiment(
        cfg.equation_for("weak_residual"), cfg.seed, opt["dts"],
        epsilon=opt["epsilon"], k_max=opt["k_max"], scheme=opt["scheme"])


EXPERIMENTS = {
    "resolvent_algebra": _exp_resolvent_algebra,
    "trotter_kato": _exp_trotter_kato,
    "wiener_isometry": _isometry("wiener_isometry", analysis.wiener_isometry_experiment, "B"),
    "poisson_isometry": _isometry("poisson_isometry", analysis.poisson_isometry_experiment, "G"),
    "compensator": _isometry("compensator", analysis.compensator_experiment, "G"),
    "regularization_identity": _exp_regularization_identity,
    "energy_identity": _exp_energy_identity,
    "coupling": _exp_coupling,
    "contraction": _exp_contraction,
    "stability": _exp_stability,
    "cauchy": _exp_cauchy,
    "weak_residual": _exp_weak_residual,
}


# The option table: {section: {key: (parse, default)}}.  A default is the text
# the key reads when it is not set; None marks a required key, and
# "[experiment] <key>" takes the text of that [experiment] key.  Table order is
# reading order, so a key can check itself against the keys above it.
_COUNT, _NUMBER, _POSITIVE = _number(int, 1), _number(), _number(float, 0.0)
_SCHEME = _choice("exp_euler", "resolvent_implicit")
_DTS = (_positives(steps=True, horizon="T", minimum=3), "[experiment] dt_list")

_EQUATION = {
    "n": (_COUNT, None),
    "operator": (_choice("dirichlet_laplacian", "diagonal"), "dirichlet_laplacian"),
    "eigenvalues": (_eigenvalues, ""), "weight": (_POSITIVE, "1.0"),
    "T": (_POSITIVE, "1.0"), "alpha": (_NUMBER, "0.0"),
    "f_coeffs": (_vector(), ""), "eta": (_NUMBER, "0.0"),
    "u0": (_vector("n"), None),
    "q": (_vector("d", nonnegative=True), "1.0"),
    "b_base": (_matrix("d"), "zeros"), "b_scale": (_vector("d"), "zeros"),
    "z_atoms": (_vector("J"), "0.0"), "z_weights": (_vector("J", nonnegative=True), "0.0"),
    "g_base": (_matrix("J"), "zeros"), "g_scale": (_vector("J"), "zeros"),
}

# The experiments that solve the configured equation; their sections may also
# set every [equation] key but those of the operator.
OVERRIDES = ("coupling", "contraction", "stability", "cauchy", "weak_residual")
_OVERRIDABLE = {key: row for key, row in _EQUATION.items()
                if key not in ("n", "operator", "eigenvalues", "weight")}

_ISOMETRY = {"steps": (_number(int, 1, high=analysis.MAX_STEPS), "16"), "t": (_POSITIVE, "1.0"),
             "paths": (_COUNT, "10000")}
_COUPLED = {"ensemble": (_COUNT, "[experiment] ensemble_coupled"),
            "dt": (_positives(one=True, steps=True, horizon="T"), "0.0078125")}

OPTIONS = {
    "equation": _EQUATION,
    "experiment": {
        "seed": (_seed, None), "experiments": (_choice(*EXPERIMENTS, many=True), ""),
        "dt_list": (_positives(steps=True), "0.0078125 0.00390625 0.001953125 0.0009765625"),
        "ensemble_coupled": (_COUNT, "1000"),
    },
    "output": {"directory": (lambda text, values: Path(text), "out"),
               "formats": (_choice("report", "plotdata", many=True), "report plotdata")},
    "experiment.resolvent_algebra": {"trials": (_COUNT, "100")},
    "experiment.trotter_kato": {
        "lambda1": (_POSITIVE, "0.5"), "noise_amp": (_NUMBER, "0.2"), "t": (_POSITIVE, "1.0"),
        "dt": (_positives(one=True, steps=True, horizon="t"), "0.0009765625"),
        "epsilons": (_positives(minimum=1), "0.5 0.25 0.125 0.0625 0.03125 0.015625"),
    },
    "experiment.wiener_isometry": _ISOMETRY,
    "experiment.poisson_isometry": _ISOMETRY,
    "experiment.compensator": _ISOMETRY,
    "experiment.regularization_identity": {
        "instances": (_COUNT, "20"), "t": (_POSITIVE, "0.25"),
        "dt": (_positives(one=True, steps=True, horizon="t"), "0.015625"),
        "epsilon": (_positives(one=True), "0.3"),
    },
    "experiment.energy_identity": {
        "n": (_COUNT, "5"), "t": (_POSITIVE, "0.5"),
        "dts": (_positives(steps=True, horizon="t", minimum=3), "[experiment] dt_list"),
        "paths": (_COUNT, "100"),
    },
    "experiment.coupling": {"dts": _DTS, "scheme_a": (_SCHEME, "exp_euler"),
                            "scheme_b": (_SCHEME, "resolvent_implicit")},
    "experiment.contraction": {**_COUPLED, "u0_b": (_vector("n"), None)},
    "experiment.stability": _COUPLED,
    "experiment.cauchy": {**_COUPLED, "levels": (_number(int, 2), "5")},
    "experiment.weak_residual": {
        "dts": _DTS, "epsilon": (_positives(one=True), "0.1"),
        "k_max": (_number(int, 1, high="n"), "8"), "scheme": (_SCHEME, "resolvent_implicit"),
    },
}

# Each section's rows keyed by the lower-case name configparser gives a key.
_ROWS = {section: {key.lower(): (key, *row) for key, row in
                   ({**_OVERRIDABLE, **keys} if section.removeprefix("experiment.") in OVERRIDES
                    else keys).items()}
         for section, keys in OPTIONS.items()}


def _message(label: str, exc: ValueError) -> str:
    reason = str(exc)
    return f"{label}{' ' if reason.startswith(('must ', 'is ')) else ': '}{reason}"


def _label(section: str, key: str, text: dict) -> str:
    """``[section] key``, and the key it inherits from if ``text``, the section's
    keys as read, does not set it."""
    label = f"[{section}] {key}"
    if key.lower() in text:
        return label
    default = _ROWS[section][key.lower()][2]
    if section.removeprefix("experiment.") in OVERRIDES and key in _OVERRIDABLE:
        return f"{label} (from [equation] {key})"
    if default is not None and default.startswith("[experiment] "):
        return f"{label} (from {default})"
    return label


def _read_section(section: str, text: dict, experiment_text: dict, equation=None) -> dict:
    """The typed value of every key of [section], read from ``text`` or its default;
    under an override section, an [equation] key not set keeps its ``equation`` value."""
    rows = _ROWS[section]
    for key in sorted(text.keys() - rows.keys()):
        raise ConfigurationError(f"[{section}] {key}: unknown key; "
                                 f"known: {sorted(key for key, *_ in rows.values())}")
    values = {} if equation is None else dict(equation)
    for lower, (key, parse, default) in rows.items():
        raw = text.get(lower)
        if raw is None:
            if key in values:
                continue
            if default is None:
                raise ConfigurationError(f"[{section}] {key} is required")
            raw = default
            if default.startswith("[experiment] "):
                name = default.split()[1]
                raw = experiment_text.get(name, OPTIONS["experiment"][name][1])
        try:
            values[key] = parse(raw, values)
        except ValueError as exc:
            raise ConfigurationError(_message(_label(section, key, text), exc)) from None
    return values


def parse_config(path, only=None) -> RunConfig:
    """Parse and validate a run configuration against ``OPTIONS``.

    Every key of every section, and every default of each experiment that runs
    (``only`` if given, else ``[experiment] experiments``), is checked before
    any experiment runs.  The exact dissipativity margin is recorded.
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
        parser.read_string(raw_bytes.decode(), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {' '.join(str(exc).split())}") from None
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    for name in sorted(set(sections) - set(OPTIONS)):
        if name.startswith("experiment."):
            raise ConfigurationError(
                f"[{name}]: unknown experiment section; known: {sorted(EXPERIMENTS)}")
        raise ConfigurationError(f"[{name}]: unknown section; known: equation, experiment, output")
    if "equation" not in sections:
        raise ConfigurationError(f"{path}: missing [equation] section")
    exp_text = sections.get("experiment", {})
    experiment = _read_section("experiment", exp_text, exp_text)
    equation = _read_section("equation", sections["equation"], exp_text)
    A = (dirichlet_laplacian(equation["n"]) if equation["operator"] == "dirichlet_laplacian"
         else SpectralOperator.diagonal(equation["eigenvalues"], equation["weight"]))
    spec = _equation(equation, A)
    names = experiment["experiments"] if only is None else tuple(only)
    unknown = sorted(set(names) - set(EXPERIMENTS))
    if unknown:
        raise ConfigurationError(f"--only: unknown experiments {unknown}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        source = "[experiment] experiments" if only is None else "--only"
        raise ConfigurationError(f"{source}: repeated experiments {repeated}")
    if "trotter_kato" in names and A.eigenvalues[0] == 0.0:
        raise ConfigurationError("[equation] eigenvalues: trotter_kato rescales the spectrum by "
                                 "the first eigenvalue, the one of the mode it drives, so it "
                                 f"must be > 0; got {A.eigenvalues[0]}")
    options = {
        name: _read_section(f"experiment.{name}", sections.get(f"experiment.{name}", {}),
                            exp_text, equation if name in OVERRIDES else None)
        for name in EXPERIMENTS if name in names or f"experiment.{name}" in sections
    }
    # stability and cauchy perturb B, and a data distance needs B free of the state
    for name in ("stability", "cauchy"):
        if name in names and any(options[name]["b_scale"]):
            section = f"experiment.{name}"
            label = _label(section, "b_scale", sections.get(section, {}))
            raise ConfigurationError(f"{label} must be zeros, since data distances need additive "
                                     f"Wiener coefficients; got {options[name]['b_scale']}")
    # a pair equal by construction has every gap 0, a PASS on no evidence
    for name, key, other in (("coupling", "scheme_b", "scheme_a"), ("contraction", "u0_b", "u0")):
        if name in names and options[name][key] == options[name][other]:
            raise ConfigurationError(f"[experiment.{name}] {key} must differ from {other}, "
                                     "since an equal pair has zero gaps")
    # the explicit Euler steps: trotter_kato's of A_eps at its smallest eps (the
    # stiffest), energy_identity's of the Laplacian at its largest dt
    try:
        if "trotter_kato" in names:
            label, opt = "[experiment.trotter_kato] dt", options["trotter_kato"]
            _trotter_kato_operator(A, opt).explicit_rates(opt["dt"], min(opt["epsilons"]))
        if "energy_identity" in names:
            section = "experiment.energy_identity"
            label = _label(section, "dts", sections.get(section, {}))
            opt = options["energy_identity"]
            dirichlet_laplacian(opt["n"]).explicit_rates(max(opt["dts"]), 0.0)
    except ConfigurationError as exc:
        raise ConfigurationError(_message(label, exc)) from None
    output = _read_section("output", sections.get("output", {}), exp_text)
    return RunConfig(equation=spec, experiments=names, seed=experiment["seed"],
                     output_dir=output["directory"], formats=output["formats"],
                     margin=check_dissipativity_triplet(spec),
                     config_sha256=hashlib.sha256(raw_bytes).hexdigest(), options=options)


def _blowup_report(name: str, exc: BlowUpError) -> analysis.ExperimentReport:
    """INCONCLUSIVE report of an experiment whose solver blew up, recording where."""
    row = Record("blow_up", f"step={exc.step}", exc.time, 0.0, analysis.INCONCLUSIVE)
    return analysis.ExperimentReport(name, (row,))


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
        wanted = None if args.only is None else tuple(n for n in args.only.split(",") if n)
        config = parse_config(args.config, only=wanted)
        if args.output_dir is not None:
            config = replace(config, output_dir=Path(args.output_dir))
        if args.seed is not None:
            try:
                config = replace(config, seed=_seed(args.seed))
            except ValueError as exc:
                raise ConfigurationError(_message("--seed: [experiment] seed", exc)) from None
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
