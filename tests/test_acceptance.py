"""Acceptance suite: one test per criterion, at its stated tolerance.

Each criterion runs against the shipped acceptance configuration via the
experiment registry, so the CLI invocation of ``configs/acceptance.cfg``
produces exactly the same numbers.  Every test prints a one-line verdict.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mildsde.analysis import PASS
from mildsde.cli import EXPERIMENTS, parse_config, run

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"


@pytest.fixture(scope="module")
def config():
    return parse_config(CONFIG)


def timed(name, config):
    start = time.perf_counter()
    report = EXPERIMENTS[name](config)
    return report, time.perf_counter() - start


def announce(number, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def test_criterion_01_resolvent_yosida_algebra(config):
    report, elapsed = timed("resolvent_algebra", config)
    values = {rec.label: rec.value for rec in report.records()}
    ok = (report.verdict == PASS
          and values["yosida_identity_dev"] <= 1e-9
          and values["resolvent_identity_dev"] <= 1e-9
          and values["contraction_excess"] <= 1e-9
          and values["min_monotonicity_inner"] >= -1e-12)
    announce(1, "resolvent/Yosida algebra", ok,
             f"max identity deviation {max(values['yosida_identity_dev'], values['resolvent_identity_dev']):.2e}",
             elapsed, 1)
    assert ok
    assert elapsed < 1.0


def test_criterion_02_regularization_convergence_slope(config):
    report, elapsed = timed("trotter_kato", config)
    ok = report.verdict == PASS and 0.9 <= report.summary["slope"] <= 1.1
    announce(2, "regularized-scheme convergence", ok, f"slope {report.summary['slope']:.3f}",
             elapsed, 10)
    assert ok
    assert np.all(np.diff(report.summary["gaps"]) < 0.0)
    assert elapsed < 10.0


def test_criterion_03_stochastic_isometries(config):
    wiener, t_w = timed("wiener_isometry", config)
    poisson, t_p = timed("poisson_isometry", config)
    ok = (wiener.verdict == PASS and poisson.verdict == PASS
          and wiener.summary["relative_error"] <= 0.05
          and poisson.summary["relative_error"] <= 0.05)
    announce(3, "Wiener and jump isometries", ok,
             f"relative errors {wiener.summary['relative_error']:.3f} / "
             f"{poisson.summary['relative_error']:.3f}", t_w + t_p, 30)
    assert ok
    assert t_w < 30.0 and t_p < 30.0


def test_criterion_04_compensator_identity(config):
    report, elapsed = timed("compensator", config)
    rec = report.records()[0]
    ok = report.verdict == PASS and abs(rec.value) <= 3.0 * rec.stderr
    announce(4, "jump compensator identity", ok,
             f"mean difference {rec.value:.2e} within 3 x {rec.stderr:.2e}", elapsed, 30)
    assert ok
    assert elapsed < 30.0


def test_criterion_05_exact_regularization_identity(config):
    report, elapsed = timed("regularization_identity", config)
    ok = report.verdict == PASS and max(report.summary.values()) <= 1e-9
    announce(5, "exact mollified-solution identity", ok,
             f"worst residual {max(report.summary.values()):.2e}", elapsed, 5)
    assert ok
    assert elapsed < 5.0


def test_criterion_06_discrete_energy_identity(config):
    report, elapsed = timed("energy_identity", config)
    ok = report.verdict == PASS and report.summary["order"] >= 0.9
    announce(6, "discrete energy identity", ok,
             f"fitted order {report.summary['order']:.3f} over 100 paths", elapsed, 60)
    assert ok
    assert elapsed < 60.0


def test_criterion_07_uniqueness_coupling(config):
    report, elapsed = timed("coupling", config)
    ok = (report.verdict == PASS
          and np.all(np.diff(report.summary["gaps"]) < 0.0)
          and report.summary["fitted_order"] >= 0.9
          and np.all(np.isfinite(report.summary["integrability"])))
    announce(7, "scheme-pair uniqueness coupling", ok,
             f"order {report.summary['fitted_order']:.3f}, gaps strictly decreasing", elapsed, 120)
    assert ok
    assert elapsed < 120.0


def test_criterion_08_contraction_envelope(config):
    report, elapsed = timed("contraction", config)
    per_time = [rec for rec in report.records() if rec.label == "mean_sq_gap"]
    ok = (report.verdict == PASS and report.summary["margin"] >= 0.0
          and all(rec.verdict == PASS for rec in per_time))
    announce(8, "synchronous-coupling contraction", ok,
             f"margin {report.summary['margin']:.3f}, envelope held at all "
             f"{len(per_time)} grid times", elapsed, 120)
    assert ok
    assert elapsed < 120.0


def test_criterion_09_stability_and_generalized_solutions(config):
    stability, t_s = timed("stability", config)
    cauchy, t_c = timed("cauchy", config)
    n_values, n_stderr = stability.summary["n_values"], stability.summary["n_stderr"]
    defined = np.isfinite(n_values)
    enveloped = np.all(n_values[defined]
                       <= stability.summary["envelope"][defined] + 3.0 * n_stderr[defined])
    ok = (stability.verdict == PASS and bool(enveloped)
          and cauchy.verdict == PASS
          and 0.15 <= cauchy.summary["mean_ratio"] <= 0.35)
    announce(9, "stability constant and Cauchy sequence", ok,
             f"N(t) under envelope, geometric ratio {cauchy.summary['mean_ratio']:.3f}",
             t_s + t_c, 120)
    assert ok
    assert t_s + t_c < 120.0


def test_criterion_10_weak_formulation_residual(config):
    report, elapsed = timed("weak_residual", config)
    ok = (report.verdict == PASS and report.summary["residuals"].shape[0] == 8
          and np.all(report.summary["orders"] >= 0.9))
    announce(10, "weak-formulation residual", ok,
             f"per-mode orders min {report.summary['orders'].min():.3f} over modes 1..8",
             elapsed, 30)
    assert ok
    assert elapsed < 30.0


def test_criterion_11_reproducibility(config, tmp_path):
    start = time.perf_counter()
    outputs = []
    for sub in ("first", "second"):
        cfg = replace(config, output_dir=tmp_path / sub)
        assert run(cfg) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted((tmp_path / sub).iterdir())})
    elapsed = time.perf_counter() - start
    manifest = outputs[0]["manifest.txt"].decode()
    all_pass = "= FAIL" not in manifest and "exit_status = 0" in manifest
    ok = outputs[0].keys() == outputs[1].keys() and outputs[0] == outputs[1] and all_pass
    announce(11, "byte-identical reruns", ok,
             f"{len(outputs[0])} artifacts identical across runs, no FAIL verdicts",
             elapsed, 600)
    assert ok
    assert elapsed < 600.0
