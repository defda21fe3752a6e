import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mildsde import analysis, cli, noise, solver
from mildsde.analysis import (FAIL, INCONCLUSIVE, PASS, ExperimentReport, _solve_ensemble,
                              compensator_experiment, contraction_experiment,
                              coupling_uniqueness_experiment, fit_order,
                              generalized_solution_cauchy, poisson_isometry_experiment,
                              regularization_identity_experiment, resolvent_algebra_check,
                              stability_estimate_experiment, weak_residual_experiment,
                              weak_solution_residual, wiener_isometry_experiment,
                              yosida_convergence_experiment, yosida_coupling_bound)
from mildsde.errors import BlowUpError, ConfigurationError, HypothesisError
from mildsde.model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                           Nonlinearity, check_dissipativity_triplet)
from mildsde.cli import EXPERIMENTS, parse_config
from mildsde.noise import (POISSON_SEED_OFFSET, NoiseBatch, TimeGrid, poisson_integral,
                           quadratic_mark_sum, sample_jump_table, sample_noise_batch, sample_poisson,
                           sample_wiener, shared_draws, step_sq_integral)
from mildsde.solver import (SchemeConfig, Trajectory, solve, solve_resolvent_implicit,
                            step_ensemble)
from mildsde.space import HilbertSpace, SpectralOperator, dirichlet_laplacian
from mildsde.textio import Record, write_plot_data

from conftest import make_cubic_spec, make_linear_spec

DTS = [2.0**-7, 2.0**-8, 2.0**-9, 2.0**-10]
ACCEPTANCE = Path(__file__).resolve().parent.parent / "configs" / "acceptance.cfg"
FINE_PATH = Path(__file__).resolve().parent.parent / "bench" / "fine-path.cfg"
CUBIC_RD = ACCEPTANCE.parent / "cubic-rd.cfg"


class TestFitOrder:
    def test_recovers_known_slope(self):
        x = np.array([0.1, 0.05, 0.025, 0.0125])
        assert fit_order(x, 3.0 * x**1.5) == pytest.approx(1.5, abs=1e-12)

    def test_zero_values_mean_infinite_order(self):
        assert fit_order([0.1, 0.05, 0.025], [0.0, 0.0, 0.0]) == math.inf


class TestReportVerdict:
    @staticmethod
    def verdict(*row_verdicts):
        rows = tuple(Record("x", verdict=v) for v in row_verdicts)
        return ExperimentReport("x", rows).verdict

    def test_inconclusive_beats_fail_beats_pass(self):
        assert self.verdict(PASS, "-", PASS) == PASS
        assert self.verdict(PASS, FAIL, "-") == FAIL
        assert self.verdict(FAIL, INCONCLUSIVE, PASS) == INCONCLUSIVE
        assert self.verdict(INCONCLUSIVE, PASS) == INCONCLUSIVE

    def test_no_judged_row_is_inconclusive(self):
        # missing evidence is never PASS
        assert self.verdict() == INCONCLUSIVE
        assert self.verdict("-", "-") == INCONCLUSIVE


class TestCouplingExperiment:
    def test_identical_scheme_pair_gives_zero_gaps(self, cubic_spec):
        report = coupling_uniqueness_experiment(cubic_spec, 3, DTS,
                                                ("exp_euler", "exp_euler"))
        assert np.all(report.summary["gaps"] == 0.0)
        assert report.verdict == PASS
        assert report.summary["fitted_order"] == math.inf

    def test_linear_additive_first_order(self):
        spec = make_linear_spec(n=7, jump_amp=0.05)
        report = coupling_uniqueness_experiment(spec, 5, DTS)
        assert report.verdict == PASS
        assert 0.9 <= report.summary["fitted_order"] <= 1.2

    def test_cubic_reaction_diffusion(self, cubic_spec):
        report = coupling_uniqueness_experiment(cubic_spec, 7, DTS)
        assert report.verdict == PASS
        assert np.all(np.diff(report.summary["gaps"]) < 0.0)
        assert report.summary["fitted_order"] >= 0.9
        assert np.all(np.isfinite(report.summary["integrability"]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::mildsde.errors.StiffnessWarning")
    def test_blow_up_is_inconclusive_never_pass(self):
        A = SpectralOperator.diagonal([0.0, 0.0])
        spec = EquationSpec(A=A, F=Nonlinearity((0.0, 0.0, 0.0, -40.0)),
                            B=DiffusionCoefficient.zero(2), G=JumpCoefficient.zero(2),
                            u0=np.array([3.0, -3.0]), T=1.0)
        report = coupling_uniqueness_experiment(spec, 1, [0.25, 0.125, 0.0625])
        assert report.verdict == INCONCLUSIVE

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore::mildsde.errors.StiffnessWarning")
    def test_blown_up_sweep_writes_no_curve(self, tmp_path):
        # every step size blows up; a NaN gap is no point of the log-log curve,
        # so no gap_vs_dt file is written
        A = SpectralOperator.diagonal([0.0, 0.0])
        spec = EquationSpec(A=A, F=Nonlinearity((0.0, 0.0, 0.0, -40.0)),
                            B=DiffusionCoefficient.zero(2), G=JumpCoefficient.zero(2),
                            u0=np.array([30.0, -30.0]), T=1.0)
        report = coupling_uniqueness_experiment(spec, 1, [0.25, 0.125, 0.0625])
        assert np.all(np.isnan(report.summary["gaps"]))
        assert report.curve_map == {}
        assert write_plot_data(report, tmp_path) == []
        assert not (tmp_path / "coupling.gap_vs_dt.dat").exists()

    def test_zero_gaps_write_no_curve(self, cubic_spec, tmp_path):
        # log2(0) = -inf: an exactly-zero sweep writes no curve rather than -inf rows
        report = coupling_uniqueness_experiment(cubic_spec, 3, DTS, ("exp_euler", "exp_euler"))
        assert np.all(report.summary["gaps"] == 0.0)
        assert report.curve_map == {}
        assert write_plot_data(report, tmp_path) == []
        assert list(tmp_path.iterdir()) == []

    def test_requires_three_dyadic_steps(self, cubic_spec):
        with pytest.raises(ConfigurationError):
            coupling_uniqueness_experiment(cubic_spec, 1, [0.25, 0.125])
        with pytest.raises(ConfigurationError):
            coupling_uniqueness_experiment(cubic_spec, 1, [0.25, 0.1, 0.05])

    @pytest.mark.parametrize("dts", [[0.0, 0.0, 0.0], [0.25, 0.125, -0.0625],
                                     [0.25, 0.125, math.nan]])
    def test_nonpositive_or_nonfinite_steps_are_a_configuration_error(self, cubic_spec, dts):
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            coupling_uniqueness_experiment(cubic_spec, 1, dts)

    def test_report_is_reproducible(self, cubic_spec):
        a = coupling_uniqueness_experiment(cubic_spec, 11, DTS)
        b = coupling_uniqueness_experiment(cubic_spec, 11, DTS)
        assert np.array_equal(a.summary["gaps"], b.summary["gaps"])
        assert a.summary["fitted_order"] == b.summary["fitted_order"]
        assert a.verdict == b.verdict


def linear_contraction_spec(slope=1.0, alpha=None):
    # A = 0 so the pathwise gap has the closed form (1 - slope*dt)^n |du0|
    A = SpectralOperator.diagonal([0.0, 0.0])
    B = DiffusionCoefficient.constant(0.2 * np.eye(2), np.ones(2))
    G = JumpCoefficient.constant(0.05 * np.ones((2, 2)), MarkSpace((-1.0, 1.0), (1.0, 1.0)))
    return EquationSpec(A=A, F=Nonlinearity.linear(slope), B=B, G=G,
                        u0=np.array([0.5, -0.5]), T=1.0,
                        alpha=slope if alpha is None else alpha)


class TestContractionExperiment:
    @pytest.mark.parametrize("dt", [0.0, -2.0**-7, math.nan, math.inf])
    def test_nonpositive_or_nonfinite_dt_is_a_configuration_error(self, dt):
        spec = linear_contraction_spec()
        with pytest.raises(ConfigurationError, match="finite and > 0"):
            contraction_experiment(spec, -spec.u0, 4, 3, dt=dt)

    def test_equal_starts_give_zero_gap(self, cubic_spec):
        spec = cubic_spec.with_data(F=Nonlinearity((0.0, 0.5, 0.0, 1.0)), alpha=0.9)
        report = contraction_experiment(spec, spec.u0, 50, 3, dt=2.0**-6)
        assert np.all(report.summary["mean_sq"] == 0.0)
        assert report.verdict == PASS

    def test_linear_flow_matches_closed_form(self):
        # declared alpha = 2 slope, the boundary of A = 0 and additive noise: the
        # squared gap meets exp(-alpha t) with near equality from below, since
        # (1 - slope*dt)^2n <= exp(-2 slope t)
        slope, dt = 1.0, 2.0**-7
        spec = linear_contraction_spec(slope, alpha=2.0 * slope)
        assert check_dissipativity_triplet(spec) == 0.0
        du0 = np.array([0.3, 0.1])
        report = contraction_experiment(spec, spec.u0 + du0, 20, 5, dt=dt)
        steps = np.arange(report.summary["times"].size)
        closed = (1.0 - slope * dt) ** (2 * steps) * spec.space.sq_norms(du0)
        assert np.allclose(report.summary["mean_sq"], closed, rtol=1e-10)
        assert np.all(report.summary["stderr"] < 1e-12)
        assert report.verdict == PASS
        # the discrete decay sits just below the envelope
        assert report.summary["mean_sq"][-1] > 0.8 * report.summary["envelope"][-1]

    def test_dissipative_cubic_bound(self):
        spec = make_cubic_spec(n=9, T=1.0, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0,
                               alpha=0.9, multiplicative=True)
        u0_b = spec.u0 + 0.2 * spec.A.eigenvectors[:, 1]
        report = contraction_experiment(spec, u0_b, 300, 7, dt=2.0**-7)
        assert report.verdict == PASS
        assert report.summary["margin"] >= 0.0

    def test_refuses_unmet_hypothesis(self):
        # anti-monotone linear drift: the raw margin is exactly -2, below
        # any nonnegative declared margin
        spec = linear_contraction_spec(slope=-1.0, alpha=0.0)
        with pytest.raises(HypothesisError):
            contraction_experiment(spec, spec.u0, 10, 1, dt=2.0**-6)

    def test_zero_margin_is_certified(self):
        # A = 0, slope 1, additive noise, alpha = 2: the margin 2 * 1 - 2 is
        # exactly 0, the boundary case, so the experiment must run, and its
        # gap decays as exp(-alpha t), within the envelope
        spec = linear_contraction_spec(slope=1.0, alpha=2.0)
        assert check_dissipativity_triplet(spec) == 0.0
        report = contraction_experiment(spec, spec.u0 + 0.1, 10, 1, dt=2.0**-6)
        assert report.summary["margin"] == 0.0
        assert report.verdict == PASS
        assert 0.9 < report.summary["mean_sq"][-1] / report.summary["envelope"][-1] <= 1.0

    def test_gap_scaling_is_exactly_linear(self):
        # pathwise linearity of the synchronous gap for a linear drift
        spec = linear_contraction_spec(0.7)
        du0 = np.array([0.2, -0.1])
        r1 = contraction_experiment(spec, spec.u0 + du0, 30, 9, dt=2.0**-6)
        r2 = contraction_experiment(spec, spec.u0 + 3.0 * du0, 30, 9, dt=2.0**-6)
        assert np.allclose(r2.summary["mean_sq"], 9.0 * r1.summary["mean_sq"], rtol=1e-11)


def additive_pair(n=9, delta_amp=0.05, slope=None):
    spec1 = make_cubic_spec(n=n, T=1.0, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0,
                            multiplicative=False)
    delta = np.zeros(spec1.B.base.shape)
    delta[:, 0] = delta_amp * spec1.A.eigenvectors[:, 0]
    b2 = DiffusionCoefficient.constant(spec1.B.base + delta, spec1.B.q)
    return spec1, spec1.with_data(B=b2), delta


class TestStabilityExperiment:
    def test_identical_specs_report_zero(self, cubic_spec):
        spec = cubic_spec.with_data()
        report = stability_estimate_experiment(spec, spec, 20, 3, dt=2.0**-6)
        assert np.all(report.summary["n_values"][np.isfinite(report.summary["n_values"])] == 0.0)
        assert report.verdict == INCONCLUSIVE
        # no data distance: the N rows say INCONCLUSIVE, not PASS
        n_rows = [rec for rec in report.rows if rec.label == "N"]
        assert n_rows and all(rec.verdict == INCONCLUSIVE for rec in n_rows)

    def test_dissipative_cubic_envelope(self):
        spec1, spec2, _ = additive_pair()
        report = stability_estimate_experiment(spec1, spec2, 400, 5, dt=2.0**-7)
        assert report.verdict == PASS
        n_values, envelope = report.summary["n_values"], report.summary["envelope"]
        vals = n_values[np.isfinite(n_values)]
        assert np.all(vals <= envelope[np.isfinite(n_values)] + 3 * 1e-2)

    def test_gaussian_closed_form(self):
        # linear drift, additive noise: the difference is the discrete
        # stochastic convolution of the coefficient difference, so its
        # variance has an exact per-mode recursion
        n, lam_f, dt = 3, 0.5, 2.0**-6
        A = SpectralOperator.diagonal([0.3, 1.0, 2.0])
        q = np.array([1.0])
        b1 = np.array([[0.2], [0.1], [0.05]])
        delta = np.array([[0.08], [0.0], [0.02]])
        spec1 = EquationSpec(A=A, F=Nonlinearity.linear(lam_f),
                             B=DiffusionCoefficient.constant(b1, q),
                             G=JumpCoefficient.zero(3),
                             u0=np.zeros(3), T=1.0)
        spec2 = spec1.with_data(B=DiffusionCoefficient.constant(b1 + delta, q))
        members = 4000
        report = stability_estimate_experiment(spec1, spec2, members, 11, dt=dt)
        steps = round(1.0 / dt)
        decay = np.exp(-dt * A.eigenvalues)
        v = np.zeros(3)
        variances = [0.0]
        for _ in range(steps):
            v = decay**2 * ((1.0 - lam_f * dt) ** 2 * v + dt * delta[:, 0] ** 2)
            variances.append(v.sum())  # weight = 1
        exact_n = np.array(variances) / np.maximum(
            report.summary["times"] * (delta[:, 0] ** 2).sum(), 1e-300)
        got = report.summary["n_values"][1:]
        want = exact_n[1:]
        se = report.summary["n_stderr"][1:]
        assert np.all(np.abs(got - want) <= 3.0 * se + 1e-12)

    def test_jump_coefficient_distance_gives_unit_n(self):
        # A = 0, f = 0 and specs that differ only in an additive G: the gap is
        # dG times the compensated jump integral, so E|gap(t)|^2 = t |dG|_m^2,
        # which is the data distance up to t, and N(t) = 1 for t > 0
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        spec1 = EquationSpec(A=SpectralOperator.diagonal([0.0, 0.0]), F=Nonlinearity.zero(),
                             B=DiffusionCoefficient.zero(2),
                             G=JumpCoefficient.constant(np.zeros((2, 2)), marks),
                             u0=np.zeros(2), T=1.0)
        dG = np.array([[0.1, -0.1], [0.05, 0.0]])
        spec2 = spec1.with_data(G=JumpCoefficient.constant(dG, marks))
        report = stability_estimate_experiment(spec1, spec2, 400, 3, dt=2.0**-4)
        n_values, se = report.summary["n_values"], report.summary["n_stderr"]
        assert n_values[0] == 0.0
        assert np.all(np.abs(n_values[1:] - 1.0) <= 3.0 * se[1:])
        assert report.verdict == PASS

    def test_collapse_of_n_fails_continuity(self):
        # A = diag(0, 2000), f = 0: spec2 moves u0 by 1 in the stiff mode, which
        # has all but vanished after one step, and adds 0.1 to B in the flat
        # mode, so N falls from 1 to about 1.5e-4 at t = dt.  The raw margin is
        # 0, so the envelope is 1 and every N sits below it: the FAIL is the
        # continuity rule's alone.
        q = np.array([1.0])
        spec1 = EquationSpec(A=SpectralOperator.diagonal([0.0, 2000.0]), F=Nonlinearity.zero(),
                             B=DiffusionCoefficient.constant(np.zeros((2, 1)), q),
                             G=JumpCoefficient.zero(2), u0=np.zeros(2), T=1.0)
        spec2 = spec1.with_data(u0=np.array([0.0, 1.0]),
                                B=DiffusionCoefficient.constant(np.array([[0.1], [0.0]]), q))
        report = stability_estimate_experiment(spec1, spec2, 50, 3, dt=2.0**-6)
        n_values = report.summary["n_values"]
        assert n_values[0] == 1.0 and n_values[1] < 1e-3
        assert np.all(n_values <= report.summary["envelope"])
        assert report.verdict == FAIL
        # the row that says why: N at t = dt, the first to fall by more than 5x
        failed = [(rec.label, rec.params) for rec in report.rows if rec.verdict == FAIL]
        assert failed == [("N", "t=0.015625")]

    def test_refuses_unbounded_drift_derivative(self):
        # f = r^2 has f' unbounded below: the Gronwall envelope would be
        # exp(inf * 0) = nan at t = 0, so the experiment refuses to run
        spec1, spec2, _ = additive_pair()
        quadratic = Nonlinearity((0.0, 0.0, 1.0))
        spec1, spec2 = spec1.with_data(F=quadratic), spec2.with_data(F=quadratic)
        with pytest.raises(HypothesisError, match="-inf"):
            stability_estimate_experiment(spec1, spec2, 10, 1, dt=2.0**-6)
        seq = [(spec1.u0, spec1.B, spec1.G)] * 3
        with pytest.raises(HypothesisError, match="-inf"):
            generalized_solution_cauchy(spec1, seq, 1, ensemble_size=10, dt=2.0**-6)

    def test_rejects_mismatched_frames(self):
        spec1 = make_cubic_spec(n=9, multiplicative=False)
        spec2 = make_cubic_spec(n=9, multiplicative=False, f_coeffs=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            stability_estimate_experiment(spec1, spec2, 10, 1, dt=2.0**-6)
        # nor may the operator or the horizon differ
        scaled = EquationSpec(A=spec1.A.scaled(2.0), F=spec1.F, B=spec1.B, G=spec1.G,
                              u0=spec1.u0, T=spec1.T)
        for other, message in ((scaled, "shared operator$"),
                               (spec1.with_data(T=2.0 * spec1.T), "shared horizon$")):
            with pytest.raises(ConfigurationError, match=message):
                stability_estimate_experiment(spec1, other, 10, 1, dt=2.0**-6)
        # a Cauchy entry must share the limit's covariance weights and mark space
        spec1, _, _ = additive_pair()
        other_q = DiffusionCoefficient.constant(spec1.B.base, np.array([100.0, 100.0]))
        three_atoms = JumpCoefficient.constant(np.zeros((9, 3)),
                                               MarkSpace((-1.0, 0.0, 1.0), (1.0, 1.0, 1.0)))
        for seq in ([(spec1.u0, spec1.B, spec1.G), (spec1.u0, other_q, spec1.G)],
                    [(spec1.u0, other_q, spec1.G), (spec1.u0, other_q, spec1.G)],
                    [(spec1.u0, spec1.B, spec1.G), (spec1.u0, spec1.B, three_atoms)]):
            with pytest.raises(ConfigurationError):
                generalized_solution_cauchy(spec1, seq, 1, ensemble_size=10, dt=2.0**-6)

    def test_rejects_distinct_multiplicative_noise(self):
        # identical coefficient objects cancel exactly and are fine; two
        # different state-dependent coefficients have no well-defined
        # deterministic data distance
        spec1 = make_cubic_spec(n=9, multiplicative=True)
        other_b = DiffusionCoefficient(1.1 * spec1.B.base, spec1.B.state_scale, spec1.B.q)
        spec2 = spec1.with_data(B=other_b)
        with pytest.raises(ConfigurationError):
            stability_estimate_experiment(spec1, spec2, 10, 1, dt=2.0**-6)


class TestCauchyExperiment:
    def test_constant_sequence_is_all_zero(self):
        spec1, _, _ = additive_pair()
        seq = [(spec1.u0, spec1.B, spec1.G)] * 3
        report = generalized_solution_cauchy(spec1, seq, 3, ensemble_size=20, dt=2.0**-6)
        assert np.all(report.summary["solution_dists"] == 0.0)
        assert report.verdict == PASS

    def test_geometric_data_sequence(self):
        spec1, _, delta = additive_pair(n=9)
        seq = []
        for k in range(5):
            b_k = DiffusionCoefficient.constant(spec1.B.base + 2.0**-k * delta, spec1.B.q)
            seq.append((spec1.u0, b_k, spec1.G))
        report = generalized_solution_cauchy(spec1, seq, 5, ensemble_size=400, dt=2.0**-7)
        assert report.verdict == PASS
        assert 0.15 <= report.summary["mean_ratio"] <= 0.35
        assert np.all(np.diff(report.summary["solution_dists"]) < 0.0)

    def test_mollified_initial_data(self):
        # u0_n = (I + A/(n+1))^{-1} u0 converges at the resolvent rate
        spec1, _, _ = additive_pair(n=9)
        A = spec1.A
        seq = []
        for k in range(4):
            eps = 1.0 / (k + 1)
            u0_k = A.synthesize(A.resolvent_factors(eps) * A.coords(spec1.u0))
            seq.append((u0_k, spec1.B, spec1.G))
        report = generalized_solution_cauchy(spec1, seq, 7, ensemble_size=100, dt=2.0**-6)
        assert report.verdict == PASS
        assert np.all(np.diff(report.summary["solution_dists"]) < 0.0)

    def test_rejects_nondecreasing_data(self):
        spec1, _, delta = additive_pair(n=9)
        worse = DiffusionCoefficient.constant(spec1.B.base + delta, spec1.B.q)
        better = DiffusionCoefficient.constant(spec1.B.base + 0.5 * delta, spec1.B.q)
        seq = [(spec1.u0, better, spec1.G), (spec1.u0, worse, spec1.G)]
        with pytest.raises(ConfigurationError):
            generalized_solution_cauchy(spec1, seq, 1, ensemble_size=5, dt=2.0**-6)


class TestCoupledEnsembles:
    def test_small_ensembles_are_pinned(self):
        # exact values: sharing one noise batch and one solve order must not move them
        spec = make_cubic_spec(n=5, T=0.25, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0, alpha=0.2)
        u0_b = spec.u0 + 0.1 * spec.A.eigenvectors[:, 1]
        report = contraction_experiment(spec, u0_b, 6, 17, dt=2.0**-4)
        assert report.summary["mean_sq"].tolist() == [
            0.010000000000000002, 9.405502979089322e-05, 2.095633701138269e-06,
            3.4726001965310657e-07, 9.721593593603986e-08]
        assert report.summary["stderr"].tolist() == [
            0.0, 8.590420515156863e-07, 4.657214532284711e-08, 1.4394992474418957e-08,
            4.645134756116505e-09]
        spec1, spec2, delta = additive_pair(n=5)
        spec1, spec2 = spec1.with_data(T=0.25), spec2.with_data(T=0.25)
        report = stability_estimate_experiment(spec1, spec2, 6, 17, dt=2.0**-4)
        assert report.summary["n_values"].tolist() == [
            0.0, 0.1870648605387872, 0.209807601722755, 0.18730038553575207,
            0.10025275209992388]
        seq = [(spec1.u0, DiffusionCoefficient.constant(spec1.B.base + 2.0**-k * delta,
                                                         spec1.B.q), spec1.G)
               for k in range(3)]
        report = generalized_solution_cauchy(spec1, seq, 17, ensemble_size=6, dt=2.0**-4)
        assert report.summary["solution_dists"].tolist() == [2.194928211379987e-05,
                                                             5.487314024797833e-06]

    def test_one_binning_per_noise_batch(self, monkeypatch):
        binned = []
        bin_jumps = noise.jump_cell_counts

        def counted(*args):
            binned.append(args)
            return bin_jumps(*args)

        monkeypatch.setattr(noise, "jump_cell_counts", counted)
        spec1, spec2, delta = additive_pair(n=5)
        seq = [(spec1.u0, DiffusionCoefficient.constant(spec1.B.base + 2.0**-k * delta,
                                                         spec1.B.q), spec1.G)
               for k in range(4)]
        generalized_solution_cauchy(spec1, seq, 17, ensemble_size=6, dt=2.0**-4)
        assert len(binned) == 1

    def test_bad_data_is_rejected_before_sampling(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("noise sampled before the data were checked")

        monkeypatch.setattr(analysis, "sample_noise_batch", no_sampling)
        spec1, spec2, delta = additive_pair()
        multiplicative = DiffusionCoefficient(spec1.B.base, [0.05, 0.0], spec1.B.q)
        with pytest.raises(ConfigurationError, match="additive"):
            stability_estimate_experiment(spec1, spec1.with_data(B=multiplicative), 10, 1,
                                          dt=2.0**-6)
        with pytest.raises(ConfigurationError, match="ensemble size"):
            stability_estimate_experiment(spec1, spec2, 0, 1, dt=2.0**-6)
        worse = DiffusionCoefficient.constant(spec1.B.base + delta, spec1.B.q)
        better = DiffusionCoefficient.constant(spec1.B.base + 0.5 * delta, spec1.B.q)
        seq = [(spec1.u0, better, spec1.G), (spec1.u0, worse, spec1.G)]
        with pytest.raises(ConfigurationError, match="strictly decreasing"):
            generalized_solution_cauchy(spec1, seq, 1, ensemble_size=5, dt=2.0**-6)
        spec = make_cubic_spec(n=5, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0, alpha=0.2)
        with pytest.raises(ConfigurationError, match="ensemble size"):
            contraction_experiment(spec, spec.u0, 0, 1, dt=2.0**-4)

    def test_cauchy_peak_memory_per_level_is_a_fraction_of_an_ensemble(self):
        # the levels step as data groups of one call that keeps only per-node
        # moments: a level adds a block of gaps and of states, never a
        # (members, nodes) gap row or a (members, nodes, n) trajectory array
        # (about 2% of an ensemble measured; 10-14% with gap rows)
        spec1, _, delta = additive_pair(n=9)
        members, dt = 200, 2.0**-6
        ensemble_bytes = members * (round(spec1.T / dt) + 1) * spec1.A.dim * 8

        def peak(levels):
            seq = [(spec1.u0, DiffusionCoefficient.constant(spec1.B.base + 2.0**-k * delta,
                                                            spec1.B.q), spec1.G)
                   for k in range(levels)]
            tracemalloc.start()
            try:
                generalized_solution_cauchy(spec1, seq, 5, ensemble_size=members, dt=dt)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # leaves out one-time allocations of a first call
        base = peak(2)
        for levels in (6, 12):
            assert (peak(levels) - base) / (levels - 2) < ensemble_bytes / 20

    def test_contraction_memory_does_not_grow_with_the_step_count(self, monkeypatch):
        # the moments are reduced per block of nodes: 1,024 steps of 1,000 members
        # peak less than 1 MiB above 128 steps, where a (members, nodes) gap array
        # would add about 7 MB.  The noise is drawn and binned before tracing.
        spec = make_cubic_spec(n=5, T=1.0, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0, alpha=0.2)
        u0_b = spec.u0 + 0.1 * spec.A.eigenvectors[:, 1]
        batches = {}
        for steps in (128, 1024):
            batch = sample_noise_batch(spec.B.q, spec.marks, TimeGrid(spec.T, steps), 3, 1000)
            batch.cell_counts
            batches[steps] = batch
        monkeypatch.setattr(analysis, "sample_noise_batch",
                            lambda q, marks, grid, seed, members: batches[grid.steps])

        def peak(steps):
            tracemalloc.start()
            try:
                contraction_experiment(spec, u0_b, 1000, 3, dt=spec.T / steps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(128)  # leaves out one-time allocations of a first call
        assert peak(1024) - peak(128) < 2**20


def full_gap_moments(frame, specs, dt, seed, members):
    """_mean_stderr of the whole (members, nodes) gap array of each consecutive
    pair, the states coming from one-group step_ensemble calls without a reducer."""
    grid = TimeGrid(frame.T, round(frame.T / dt))
    paths = sample_noise_batch(frame.B.q, frame.marks, grid, seed, members)
    config = SchemeConfig("exp_euler", dt)

    def states(spec):
        return step_ensemble(paths.wiener.increments, paths.cell_counts, ((spec, config),))[0]

    means, ses, a = [], [], states(specs[0])
    for spec in specs[1:]:
        b = states(spec)
        gaps = np.concatenate([frame.space.sq_norms(a[:, lo:lo + 16] - b[:, lo:lo + 16])
                               for lo in range(0, grid.steps + 1, 16)], axis=1)
        mean, se = analysis._mean_stderr(gaps)
        means.append(mean)
        ses.append(se)
        a = b
    return np.array(means), np.array(ses)


def cauchy_chain():
    """The shipped cubic-rd chain of stability and cauchy: spec, moved(0..4)."""
    cfg = parse_config(CUBIC_RD)
    spec, moved = cli._perturbed(cfg, "cauchy")
    levels = cfg.options["cauchy"]["levels"]
    return [spec] + [spec.with_data(B=moved(k)) for k in range(levels)]


def short_pair(T):
    spec1, spec2, _ = additive_pair(n=9)
    return [spec1.with_data(T=T), spec2.with_data(T=T)]


class TestCoupledMoments:
    """The per-node moments of the coupled gaps keep the bits of _mean_stderr over the
    whole (members, nodes) gap array, whatever the blocks and slices."""

    @pytest.mark.parametrize("specs,dt,members,blocks,slices", [
        # cauchy's shipped shape: 6 groups of 1000 members, K = 1, 8 slices of 128 or less
        (cauchy_chain, 2.0**-7, 1000, [1] * 129, 8),
        # 64 steps in one block, wider than the two columns held for node 0
        (lambda: short_pair(1.0), 2.0**-6, 3, [1, 64], 1),
        # blocks of 18 nodes and a single trailing node
        (lambda: short_pair(19 * 2.0**-6), 2.0**-6, 100, [1, 18, 1], 1),
        # one member: the standard error is 0
        (lambda: short_pair(1.0), 2.0**-6, 1, [1, 64], 1),
    ], ids=["shipped", "wide_block", "trailing_node", "one_member"])
    def test_moments_keep_the_bits_of_the_whole_gap_array(self, specs, dt, members, blocks,
                                                           slices, monkeypatch):
        specs = specs()
        calls, stepper = [], analysis.step_ensemble

        def recorded(dW, counts, groups, reduce):
            def seen(node, cols, states):
                calls.append((node, cols, len(states)))
                reduce(node, cols, states)
            return stepper(dW, counts, groups, seen)

        monkeypatch.setattr(analysis, "step_ensemble", recorded)
        mean, se = analysis._coupled_moments(specs[0], specs, dt, 11, members)()
        monkeypatch.undo()
        assert [k for node, cols, k in calls if cols.start == 0] == blocks
        assert len({cols.start for _, cols, _ in calls}) == slices
        want_mean, want_se = full_gap_moments(specs[0], specs, dt, 11, members)
        assert mean.shape == want_mean.shape == (len(specs) - 1, round(specs[0].T / dt) + 1)
        assert np.array_equal(mean.view(np.int64), want_mean.view(np.int64))
        assert np.array_equal(se.view(np.int64), want_se.view(np.int64))
        assert (members == 1) == (not se.any())

    @pytest.mark.parametrize("pairs", [1, 2, 5])
    @pytest.mark.parametrize("filled", [1, 2])
    @pytest.mark.parametrize("members", [1, 2, 1000])
    def test_member_major_flush_keeps_the_bits_of_the_pair_major_one(self, pairs, filled,
                                                                        members):
        # the held gaps (members, pairs, 2) reduced over members, against the same gaps held
        # pair-major, (pairs, members, 2), reduced over members: the first ``filled`` columns
        rng = np.random.default_rng(100 * pairs + 10 * filled + members)
        for _ in range(20):
            gaps = rng.standard_normal((members, pairs, 2))**2 * 10.0**rng.integers(-8, 3)
            held = np.zeros((members, pairs, 2))
            held[..., :filled] = gaps[..., :filled]
            got = analysis._mean_stderr(held, axis=0)
            want = analysis._mean_stderr(np.ascontiguousarray(held.transpose(1, 0, 2)), axis=1)
            for g, w in zip(got, want):
                assert g.shape == w.shape == (pairs, 2)
                assert g[:, :filled].tobytes() == w[:, :filled].tobytes()

    @pytest.mark.parametrize("K", [1, 3])
    def test_moments_keep_the_bits_of_a_pair_major_reducer(self, K, monkeypatch):
        # blocks of K steps, in slices of 64 and 36 members for K = 1
        specs = short_pair(1.0)
        specs.append(specs[0].with_data(u0=specs[0].u0 + 0.1))
        dt, members = 2.0**-6, 100
        monkeypatch.setattr(solver, "_BLOCK_VALUES", K * len(specs) * members * 9)
        mean, se = analysis._coupled_moments(specs[0], specs, dt, 5, members)()
        want_mean, want_se = pair_major_moments(specs, dt, 5, members)
        assert mean.shape == (2, 65)
        assert mean.tobytes() == want_mean.tobytes() and se.tobytes() == want_se.tobytes()


def pair_major_moments(specs, dt, seed, members):
    """The moments of _coupled_moments from its reducer as it held the gaps before,
    pair-major (pairs, members, columns), reduced over axis 1."""
    frame, pairs = specs[0], len(specs) - 1
    grid = TimeGrid(frame.T, round(frame.T / dt))
    paths = sample_noise_batch(frame.B.q, frame.marks, grid, seed, members)
    mean, se = np.empty((2, pairs, grid.steps + 1))
    held, filled = np.zeros((pairs, members, 2)), 0

    def reduce(node, cols, states):
        nonlocal held, filled
        K = len(states)
        if held.shape[2] < filled + K:
            held = np.concatenate((held[:, :, :filled], np.zeros((pairs, members, K))), axis=2)
        t = states.transpose(1, 3, 0, 2)   # the gaps (pairs, w, K, n), C-contiguous
        gap = np.subtract(t[:-1], t[1:], out=np.empty(t[1:].shape))
        held[:, cols, filled:filled + K] = frame.space.sq_norms(gap)
        if cols.stop == members:
            filled += K
            if filled >= 2 or node + K > grid.steps:
                m, s = analysis._mean_stderr(held, axis=1)
                done = slice(node + K - filled, node + K)
                mean[:, done], se[:, done] = m[:, :filled], s[:, :filled]
                filled = 0

    step_ensemble(paths.wiener.increments, paths.cell_counts,
                  tuple((spec, SchemeConfig("exp_euler", dt)) for spec in specs), reduce)
    return mean, se


class TestH2Norm:
    """The H^2 norm sup_t E|u(t)|^2 of an ensemble, as the ensemble mean of |u|^2."""

    def test_ornstein_uhlenbeck_moment(self):
        # discrete OU closed form: the scheme's second moment has an exact
        # geometric recursion, the ensemble estimate must match within 3 SE
        a, sigma, dt, steps = 1.0, 0.4, 2.0**-6, 64
        A = SpectralOperator.diagonal([a])
        spec = EquationSpec(A=A, F=Nonlinearity.zero(),
                            B=DiffusionCoefficient.constant(sigma * np.ones((1, 1)),
                                                            np.array([1.0])),
                            G=JumpCoefficient.zero(1), u0=np.array([0.8]), T=1.0)
        grid = TimeGrid(1.0, steps)
        states = _solve_ensemble(spec, grid, dt, "exp_euler", 13, 4000)
        decay = np.exp(-a * dt)
        second = [0.8**2]
        for _ in range(steps):
            second.append(decay**2 * (second[-1] + sigma**2 * dt))
        exact_sup = max(second)
        sq = spec.space.sq_norms(states)
        got = sq.mean(axis=0).max()
        se = sq.std(axis=0, ddof=1).max() / np.sqrt(4000)
        assert abs(got - exact_sup) <= 3 * se


class TestEnsembleSeeding:
    @pytest.mark.parametrize("scheme", ["exp_euler", "resolvent_implicit"])
    def test_member_matches_single_path_solve(self, scheme):
        # member i uses the Wiener seed seed + i and the jump seed seed + 2**31 + i
        spec = make_cubic_spec(n=7, multiplicative=True)
        assert not spec.B.additive and not spec.G.additive
        dt, seed, members = 2.0**-5, 41, 4
        grid = TimeGrid(spec.T, round(spec.T / dt))
        states = _solve_ensemble(spec, grid, dt, scheme, seed, members)
        for i in range(members):
            noise = NoiseBatch(sample_wiener(spec.B.q, grid, seed + i),
                               sample_poisson(spec.marks, spec.T, seed + 2**31 + i))
            single, = solve(spec, noise, (SchemeConfig(scheme, dt),))
            single = single.states
            assert np.abs(states[i] - single).max() <= 1e-12


def whole_path_reductions(spec, left, dW, dN, dt):
    """The sums of u, F(u) and the two noise totals in eigen-coordinates and the
    integrability over the left states ``left`` (cells' dW and dN = counts - dt m),
    by the whole-trajectory formulas that _PathSums replaced: the reference it
    must agree with."""
    A, space = spec.A, spec.space
    wiener = spec.B.base @ dW.sum(axis=0) + left.T @ (dW @ spec.B.state_scale)
    jump = spec.G.base @ dN.sum(axis=0) + left.T @ (dN @ spec.G.state_scale)
    total = np.sqrt(space.sq_norms(spec.F(left)))
    for coeff in (spec.B, spec.G):
        cs = coeff.weights * coeff.state_scale
        total += space.weight * ((coeff.base * coeff.base).sum(axis=0) @ coeff.weights
                                 + 2.0 * (left @ (coeff.base @ cs)))
        total += float(cs @ coeff.state_scale) * space.sq_norms(left)
    sums = (A.coords(left).sum(axis=0), A.coords(spec.F(left)).sum(axis=0), A.coords(wiener),
            A.coords(jump))
    return sums, float(dt * total.sum())


def stepped_path_sums(spec, noise, configs):
    """_PathSums of one step_ensemble call in the groups ``configs``, the states
    (nodes, G, n) it took and the step of a BlowUpError (None without one)."""
    sums, fed = analysis._PathSums(spec, noise, len(configs)), []

    def reduce(node, cols, states):
        fed.append(states[..., 0].copy())
        sums(node, cols, states)
    try:
        step_ensemble(noise.wiener.increments, noise.cell_counts,
                      tuple((spec, config) for config in configs), reduce)
    except BlowUpError as err:
        return sums, np.concatenate(fed), err.step
    return sums, np.concatenate(fed), None


def assert_same_bits(a, b):
    for x, y in zip((a.sums, a.ends, a.sq_gap), (b.sums, b.ends, b.sq_gap)):
        assert np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


class TestPathSums:
    # (solver._BLOCK_VALUES, analysis._BLOCK_VALUES): one-step blocks and one-row
    # sums; blocks of 5 steps (37 = 7 x 5 + 2, an uneven tail) summed 3 rows at a
    # time; the shipped sizes
    BLOCKS = [(1, 1), (5 * 2 * 7, 3 * 62), (solver._BLOCK_VALUES, solver._BLOCK_VALUES)]

    def test_agrees_with_the_whole_path_formulas_on_any_blocks(self, monkeypatch):
        spec = make_cubic_spec(n=7, multiplicative=True)
        assert not spec.B.additive and not spec.G.additive
        grid = TimeGrid(spec.T, 37)
        noise = sample_noise_batch(spec.B.q, spec.marks, grid, 4, 1)
        configs = (SchemeConfig("exp_euler", grid.dt), SchemeConfig("resolvent_implicit", grid.dt))
        dW = noise.wiener.increments[0]
        dN = noise.cell_counts[0] - grid.dt * spec.marks.weight_array
        runs = []
        for stepped, summed in self.BLOCKS:
            monkeypatch.setattr(solver, "_BLOCK_VALUES", stepped)
            monkeypatch.setattr(analysis, "_BLOCK_VALUES", summed)
            sums, states, blow_up = stepped_path_sums(spec, noise, configs)
            assert blow_up is None and len(states) == grid.steps + 1
            for g in range(2):
                u = states[:, g]
                want, integrability = whole_path_reductions(spec, u[:-1], dW, dN, grid.dt)
                dt, first, last, *got = sums.weak_terms(g)
                assert dt == grid.dt
                assert np.array_equal(first, spec.A.coords(u[0]))
                assert np.array_equal(last, spec.A.coords(u[-1]))
                for x, y in zip(got, want):
                    np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-14 * np.abs(y).max())
                assert sums.integrability[g] == pytest.approx(integrability, rel=1e-13)
            # coupling's gap keeps the bits of the gap of the two trajectories
            whole_gap = np.sqrt(spec.space.sq_norms(states[:, 0] - states[:, 1])).max()
            assert math.sqrt(sums.sq_gap) == whole_gap
            runs.append(sums)
        for other in runs[1:]:
            assert_same_bits(runs[0], other)
        # a trajectory handed over as one block takes the same path: the bits of solve's
        # integrability and of weak_solution_residual
        for g, traj in enumerate(solve(spec, noise, configs)):
            assert traj.integrability == runs[0].integrability[g]
            stepped = analysis._weak_residual(spec, runs[0].weak_terms(g), 0.1, 7)
            handed = weak_solution_residual(traj, spec, noise, 0.1, 7)
            assert np.array_equal(handed.view(np.int64), stepped.view(np.int64))

    @pytest.mark.filterwarnings("ignore::mildsde.errors.StiffnessWarning")
    def test_a_blow_up_keeps_the_sums_of_the_nodes_before_it(self, monkeypatch):
        # u**2 = 0.27 runs away under resolvent_implicit alone, 16 steps into 40
        # (dt * lam = 1/4, dt * f = -u**3); on one-step blocks, 6-step blocks summed
        # 3 rows at a time and the shipped sizes, the sums hold the nodes reduced
        # before the blow-up, agree with the whole-path formulas there and keep
        # their bits when those nodes are handed over as one block
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        spec = EquationSpec(A=SpectralOperator.diagonal([2.0]),
                            F=Nonlinearity((0.0, 0.0, 0.0, -8.0)),
                            B=DiffusionCoefficient([[1e-3]], [1e-3], np.ones(1)),
                            G=JumpCoefficient([[1e-3, -1e-3]], [1e-3, 1e-3], marks),
                            u0=np.array([0.27 ** 0.5]), T=40 * 0.125)
        grid = TimeGrid(spec.T, 40)
        noise = sample_noise_batch(spec.B.q, marks, grid, 2, 1)
        configs = (SchemeConfig("exp_euler", 0.125), SchemeConfig("resolvent_implicit", 0.125))
        dW = noise.wiener.increments[0]
        dN = noise.cell_counts[0] - grid.dt * marks.weight_array
        steps, reduced = set(), []
        for stepped, summed in [(1, 1), (6 * 2, 3 * 13), self.BLOCKS[-1]]:
            monkeypatch.setattr(solver, "_BLOCK_VALUES", stepped)
            monkeypatch.setattr(analysis, "_BLOCK_VALUES", summed)
            sums, states, blow_up = stepped_path_sums(spec, noise, configs)
            steps.add(blow_up)
            assert len(states) <= blow_up    # every reduced node is a left state
            reduced.append(len(states))
            cells = slice(0, len(states))
            with np.errstate(over="ignore", invalid="ignore"):
                integrability = [whole_path_reductions(spec, states[:, g], dW[cells], dN[cells],
                                                       grid.dt)[1] for g in range(2)]
                np.testing.assert_allclose(sums.integrability, integrability, rtol=1e-13)
                again = analysis._PathSums(spec, noise, 2)
                again(0, slice(0, 1), states[..., None])
            assert_same_bits(sums, again)
        assert steps == {16} and reduced == [16, 13, 1]

    def test_coupling_memory_does_not_grow_with_the_step_count(self, monkeypatch):
        # both schemes are reduced block by block: 16,384 finest steps peak less
        # than 0.5 MiB above 1,024, where the two (N+1, n) trajectories alone
        # would add 1.8 MB.  The noise is drawn and binned before tracing.
        spec = make_linear_spec(n=7, jump_amp=0.3)
        paths = {steps: sample_noise_batch(spec.B.q, spec.marks, TimeGrid(spec.T, steps), 3, 1)
                 for steps in (1024, 16384)}
        for path in paths.values():
            path.cell_counts
        monkeypatch.setattr(analysis, "sample_noise_batch",
                            lambda q, marks, grid, seed, members: paths[grid.steps])

        def peak(steps):
            dt = spec.T / steps
            tracemalloc.start()
            try:
                report = coupling_uniqueness_experiment(spec, 3, [4 * dt, 2 * dt, dt])
                assert report.verdict == PASS
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # leaves out one-time allocations of a first call
        assert peak(16384) - peak(1024) < 2**19


class TestWeakResidual:
    def make_setup(self, dt=2.0**-7, spec=None):
        spec = spec if spec is not None else make_cubic_spec(n=9)
        grid = TimeGrid(spec.T, round(spec.T / dt))
        noise = sample_noise_batch(spec.B.q, spec.marks, grid, 3, 1)
        return spec, solve_resolvent_implicit(spec, noise, dt), noise

    def test_matches_per_mode_recursion_defect(self):
        # oracle: the scalar one-step recursion is telescoped directly
        spec, traj, noise = self.make_setup()
        dt = traj.grid.dt
        A = spec.A
        residual = weak_solution_residual(traj, spec, noise, epsilon=0.1, k_max=6)
        dW, counts = noise.wiener.increments[0], noise.cell_counts[0]
        u_hat = A.coords(traj.states)
        b_hat = np.empty((traj.grid.steps, A.dim))
        for n in range(traj.grid.steps):
            u_n = traj.states[n]
            b_n = spec.B.base + np.outer(u_n, spec.B.state_scale)
            g_n = spec.G.base + np.outer(u_n, spec.G.state_scale)
            inc = (b_n @ dW[n] + g_n @ counts[n]
                   - dt * (g_n @ spec.marks.weight_array))
            b_hat[n] = A.coords(-dt * spec.F(u_n) + inc)
        lam = A.eigenvalues
        r = 1.0 / (1.0 + dt * lam)
        defect = (lam * dt * (1.0 - r) * u_hat[:-1].sum(axis=0)
                  - lam * dt * r * b_hat.sum(axis=0))
        tilde = 1.0 / (1.0 + 0.1 * lam)
        oracle = np.abs(tilde * defect)[:6]
        assert np.allclose(residual, oracle, atol=1e-12)

    def test_noise_free_semigroup_quadrature_error(self):
        # with F = B = G = 0 and the exponential scheme, the residual per
        # mode is exactly the left-rule quadrature error of lam * int e^{-lam s}
        n = 6
        A = dirichlet_laplacian(n)
        u0 = A.eigenvectors @ (0.7 ** np.arange(n))
        spec = EquationSpec(A=A, F=Nonlinearity.zero(),
                            B=DiffusionCoefficient.zero(n), G=JumpCoefficient.zero(n),
                            u0=u0, T=0.5)
        dt = 2.0**-6
        grid = TimeGrid(0.5, round(0.5 / dt))
        noise = NoiseBatch(sample_wiener(spec.B.q, grid, 1), sample_poisson(spec.marks, 0.5, 2))
        traj, = solve(spec, noise, (SchemeConfig("exp_euler", dt),))
        eps = 0.1
        residual = weak_solution_residual(traj, spec, noise, eps, k_max=n)
        lam = A.eigenvalues
        u0_hat = A.coords(u0)
        left_sum = np.array([
            lam[k] * dt * np.sum(np.exp(-lam[k] * grid.times[:-1])) for k in range(n)])
        exact = 1.0 - np.exp(-lam * 0.5)
        oracle = np.abs((left_sum - exact) * u0_hat / (1.0 + eps * lam))
        assert np.allclose(residual, oracle, atol=1e-11)

    def test_mollification_parameter_rescales_modes(self):
        spec, traj, noise = self.make_setup()
        lam = spec.A.eigenvalues[:5]
        r1 = weak_solution_residual(traj, spec, noise, epsilon=0.1, k_max=5)
        r2 = weak_solution_residual(traj, spec, noise, epsilon=0.4, k_max=5)
        assert np.allclose(r2, r1 * (1.0 + 0.1 * lam) / (1.0 + 0.4 * lam), rtol=1e-12)

    def test_rejects_bad_mode_count(self):
        spec, traj, noise = self.make_setup()
        with pytest.raises(ValueError):
            weak_solution_residual(traj, spec, noise, k_max=spec.A.dim + 1)
        # and a mollification that is not positive, a trajectory without a
        # finite integrability, and a noise grid other than the trajectory's
        unchecked = Trajectory(traj.grid, traj.states, math.inf)
        for args, message in (((traj, spec, noise, 0.0), "epsilon must be positive"),
                              ((traj, spec, noise, -0.1), "epsilon must be positive"),
                              ((unchecked, spec, noise), "integrability check$"),
                              ((traj, spec, noise.coarsen(2)),
                               "does not match the trajectory grid$")):
            with pytest.raises(ValueError, match=message):
                weak_solution_residual(*args)

    def test_experiment_orders(self, cubic_spec):
        report = weak_residual_experiment(cubic_spec, 9, DTS, k_max=6)
        assert report.verdict == PASS
        assert np.all(report.summary["orders"] >= 0.9)

    @pytest.mark.parametrize("scheme", ["resolvent_implicit", "exp_euler"])
    def test_reuses_the_coupling_reductions_bit_for_bit(self, scheme, monkeypatch):
        # in a run, a fresh spec object with coupling's payload, seed, dts and
        # scheme takes coupling's reductions; another payload or seed steps its
        # path, one step_ensemble call per step size
        spec = make_cubic_spec(n=9)
        dts = [2.0**-6, 2.0**-7, 2.0**-8]
        alone = weak_residual_experiment(spec, 5, dts, scheme=scheme).summary["residuals"]
        solves = []
        original = analysis.step_ensemble
        monkeypatch.setattr(analysis, "step_ensemble",
                            lambda *args: solves.append(1) or original(*args))
        with shared_draws():
            coupling_uniqueness_experiment(spec, 5, dts)
            solves.clear()
            handed = weak_residual_experiment(spec.with_data(), 5, dts, scheme=scheme)
            assert solves == []
            weak_residual_experiment(spec.with_data(u0=2.0 * spec.u0), 5, dts, scheme=scheme)
            weak_residual_experiment(spec, 6, dts, scheme=scheme)
            assert len(solves) == 6
        residuals = handed.summary["residuals"]
        assert np.array_equal(residuals.view(np.int64), alone.view(np.int64))
        weak_residual_experiment(spec, 5, dts, scheme=scheme)    # the run's memo is gone
        assert len(solves) == 9


class TestYosidaExperiments:
    def test_convergence_slope(self):
        spec = make_linear_spec(n=9, noise_amp=0.15)
        # rescale the spectrum so eps*lam stays small over the sweep
        A = spec.A.scaled(0.5 / spec.A.eigenvalues[0])
        spec = EquationSpec(A=A, F=spec.F, B=spec.B, G=spec.G, u0=spec.u0, T=spec.T)
        report = yosida_convergence_experiment(spec, 3, 2.0**-9,
                                               [2.0**-j for j in range(1, 7)])
        assert report.verdict == PASS
        assert 0.9 <= report.summary["slope"] <= 1.1
        assert np.all(np.diff(report.summary["gaps"]) < 0.0)

    def test_grouped_gaps_match_one_solve_per_epsilon(self, monkeypatch):
        # the benchmark's fine-path sweep: six eps stepped as groups of one call
        # against a solve per eps, 4,096 steps, bit for bit
        calls, original = [], analysis.yosida_convergence_experiment
        monkeypatch.setattr(analysis, "yosida_convergence_experiment",
                            lambda *args: calls.append(args) or original(*args))
        cfg = parse_config(FINE_PATH, only=("trotter_kato",))
        report = EXPERIMENTS["trotter_kato"](cfg)
        (spec, seed, dt, epsilons), = calls
        grid = TimeGrid(spec.T, round(spec.T / dt))
        assert grid.steps == 4096 and len(epsilons) == 6
        path = sample_noise_batch(spec.B.q, spec.marks, grid, seed, 1)
        reference, = solve(spec, path, (SchemeConfig("exp_euler", dt),))
        want = []
        for eps in sorted(epsilons, reverse=True):
            traj, = solve(spec, path, (SchemeConfig("yosida_explicit", dt, eps),))
            want.append(np.sqrt(spec.space.sq_norms(traj.states - reference.states)).max())
        assert np.array_equal(report.summary["gaps"].view(np.int64),
                              np.array(want).view(np.int64))

    def test_convergence_memory_does_not_grow_with_the_step_count(self, monkeypatch):
        # the reference and the six eps are the groups of one call, reduced block
        # by block: 16,384 steps peak less than 0.5 MiB above 1,024, where the
        # reference trajectory alone would add 0.86 MiB.  The noise is drawn
        # and binned before tracing.
        spec = make_linear_spec(n=7, jump_amp=0.3)
        paths = {steps: sample_noise_batch(spec.B.q, spec.marks, TimeGrid(spec.T, steps), 3, 1)
                 for steps in (1024, 16384)}
        for path in paths.values():
            path.cell_counts
        monkeypatch.setattr(analysis, "sample_noise_batch",
                            lambda q, marks, grid, seed, members: paths[grid.steps])

        def peak(steps):
            tracemalloc.start()
            try:
                report = yosida_convergence_experiment(spec, 3, spec.T / steps,
                                                       [2.0**-j for j in range(1, 7)])
                assert np.all(report.summary["gaps"] > 0.0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1024)  # leaves out one-time allocations of a first call
        assert peak(16384) - peak(1024) < 2**19

    def test_coupling_bound_holds_along_trajectory(self):
        spec = make_cubic_spec(n=9, T=0.5, f_coeffs=(0.0, 0.0, 0.0, 1.0), eta=0.0,
                               multiplicative=False)
        u0_b = spec.u0 + 0.3 * spec.A.eigenvectors[:, 1]
        out = yosida_coupling_bound(spec, u0_b, 5, dt=2.0**-8, epsilon=0.05)
        assert out["ok"]
        assert np.all(out["lhs"] <= out["rhs"] * (1 + 1e-9) + 1e-9)

    def test_coupling_bound_rejects_multiplicative(self):
        spec = make_cubic_spec(n=9, multiplicative=True)
        with pytest.raises(ConfigurationError):
            yosida_coupling_bound(spec, spec.u0, 1, dt=2.0**-6, epsilon=0.1)


class TestCheckExperiments:
    def test_resolvent_algebra(self):
        report = resolvent_algebra_check(dirichlet_laplacian(31), 100, 3)
        assert report.verdict == PASS

    def test_resolvent_algebra_refuses_zero_trials(self):
        # no trial would leave min_monotonicity_inner = inf and a vacuous PASS
        with pytest.raises(ConfigurationError, match="trials >= 1, got 0"):
            resolvent_algebra_check(dirichlet_laplacian(31), 0, 3)

    def test_wiener_isometry(self):
        space = HilbertSpace(5, 1.0 / 6.0)
        grid = TimeGrid(1.0, 8)
        phi = 0.5 * np.random.default_rng(1).standard_normal((8, 5, 2))
        report = wiener_isometry_experiment(phi, np.array([1.0, 0.5]), grid, 4000, 3, space)
        assert report.verdict == PASS
        assert report.summary["relative_error"] < 0.05

    def test_poisson_isometry_and_compensator(self):
        space = HilbertSpace(5, 1.0 / 6.0)
        grid = TimeGrid(1.0, 8)
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        g = 0.5 * np.random.default_rng(2).standard_normal((8, 5, 2))
        r1 = poisson_isometry_experiment(g, marks, grid, 4000, 5, space)
        assert r1.verdict == PASS
        r2 = compensator_experiment(g, marks, grid, 4000, 5, space)
        assert r2.verdict == PASS

    def test_single_sample_has_zero_stderr(self):
        spec = make_cubic_spec(n=5, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0, alpha=0.2)
        report = contraction_experiment(spec, 0.5 * spec.u0, 1, 3, dt=2.0**-4)
        assert np.all(report.summary["stderr"] == 0.0)
        space = HilbertSpace(5, 1.0 / 6.0)
        grid = TimeGrid(1.0, 8)
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        g = 0.5 * np.random.default_rng(2).standard_normal((8, 5, 2))
        report = compensator_experiment(g, marks, grid, 1, 5, space)
        assert report.summary["stderr"] == 0.0
        report = wiener_isometry_experiment(g, np.array([1.0, 0.25]), grid, 1, 5, space)
        assert report.rows[0].stderr == 0.0

    def test_blocked_jump_checks_equal_per_path_loops(self):
        # 1234 paths: two full blocks and a partial one
        space = HilbertSpace(5, 1.0 / 6.0)
        grid = TimeGrid(1.0, 8)
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        g = 0.5 * np.random.default_rng(2).standard_normal((8, 5, 2))
        paths = [sample_poisson(marks, 1.0, 5 + POISSON_SEED_OFFSET + i) for i in range(1234)]
        values = np.concatenate([poisson_integral(g, p, marks, grid) for p in paths])
        comp = step_sq_integral(g, marks.weight_array, grid, space)
        diffs = np.concatenate([quadratic_mark_sum(g, p, marks, grid, space) - comp
                                for p in paths])
        r1 = poisson_isometry_experiment(g, marks, grid, 1234, 5, space)
        assert r1.rows[0].value == space.sq_norms(values).mean()
        assert r1.rows[3].value == values.sum(axis=1).mean()
        r2 = compensator_experiment(g, marks, grid, 1234, 5, space)
        assert r2.rows[0].value == pytest.approx(diffs.mean(), rel=1e-14, abs=0.0)
        # the blocks are slices of one table: on the whole table, and inside a
        # run where compensator reads poisson_isometry's table, nothing moves
        table = sample_jump_table(marks, 1.0, 5, 1234)
        assert np.array_equal(poisson_integral(g, table, marks, grid), values)
        assert np.array_equal(quadratic_mark_sum(g, table, marks, grid, space) - comp, diffs)
        with shared_draws():
            shared = (poisson_isometry_experiment(g, marks, grid, 1234, 5, space),
                      compensator_experiment(g, marks, grid, 1234, 5, space))
        for fresh, served in zip((r1, r2), shared):
            assert [r.value for r in served.rows] == [r.value for r in fresh.rows]

    def test_acceptance_values_are_pinned(self):
        # configs/acceptance.cfg at its seed, as computed by per-path loops;
        # batching moves them by float reassociation only
        config = parse_config(ACCEPTANCE)
        energy = {(r.label, r.params): r.value
                  for r in EXPERIMENTS["energy_identity"](config).rows}
        expected = {("residual", "dt=0.0078125"): 0.09214795326736523,
                    ("residual", "dt=0.00390625"): 0.0334151631196721,
                    ("residual", "dt=0.001953125"): 0.015244291810593162,
                    ("residual", "dt=0.0009765625"): 0.007085213703354472,
                    ("order", "-"): 1.223544033287061}
        assert energy.keys() == expected.keys()
        for key, value in expected.items():
            assert energy[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        compensator = EXPERIMENTS["compensator"](config).rows[0]
        assert compensator.value == pytest.approx(0.0020247214670304999, rel=1e-12, abs=0.0)
        isometry = EXPERIMENTS["poisson_isometry"](config).rows
        assert isometry[0].value == pytest.approx(0.9617596853428062, rel=1e-12, abs=0.0)
        assert isometry[3].value == pytest.approx(0.00047439017699545333, rel=1e-12, abs=0.0)

    def test_energy_identity_with_zero_data_plots_no_log_of_zero(self):
        # every residual is exactly 0: the order reads inf (PASS) and no plot row
        # carries log2(0) = -inf or 0/0, nor warns computing them
        report = analysis.energy_identity_experiment(
            dirichlet_laplacian(3), MarkSpace((-1.0, 1.0), (2.0, 2.0)), [1.0, 0.5],
            [2.0**-6, 2.0**-7, 2.0**-8], 0.25, 4, 3, g_amp=0.0, c_amp=0.0, d_amp=0.0)
        assert [r.value for r in report.rows[:3]] == [0.0, 0.0, 0.0]
        assert report.verdict == PASS
        assert report.curve_map == {}

    def test_log2_curve_keeps_the_relative_error_of_the_points_kept(self):
        (x, y, err), = analysis._log2_curve("c", [0.5, 0.25, 1.0], np.array([0.0, 4.0, 2.0]),
                                            np.array([0.0, 1.0, 0.5])).values()
        assert np.array_equal(x, [-2.0, 0.0])
        assert np.array_equal(y, [2.0, 1.0])
        assert np.array_equal(err, [0.25, 0.25])

    def test_regularization_identity(self):
        A = dirichlet_laplacian(8)
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        report = regularization_identity_experiment(A, marks, np.array([1.0, 0.5]),
                                                    10, 3, dt=2.0**-5, T=0.25, epsilon=0.3)
        assert report.verdict == PASS
        assert max(report.summary.values()) <= 1e-9


class TestReportSerialization:
    def test_stability_records_skip_undefined_times(self):
        spec1, spec2, _ = additive_pair(n=7)
        report = stability_estimate_experiment(spec1, spec2, 30, 3, dt=2.0**-6)
        labels = [rec.label for rec in report.rows]
        assert labels.count("N") == int(np.isfinite(report.summary["n_values"]).sum())

    def test_contraction_records_carry_per_time_verdicts(self):
        spec = make_cubic_spec(n=7, T=0.5, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0,
                               alpha=0.8)
        u0_b = spec.u0 + 0.1 * spec.A.eigenvectors[:, 1]
        report = contraction_experiment(spec, u0_b, 20, 3, dt=2.0**-6)
        rows = [rec for rec in report.rows if rec.label == "mean_sq_gap"]
        assert len(rows) == report.summary["times"].size
        assert all(rec.verdict in (PASS, "FAIL") for rec in rows)
