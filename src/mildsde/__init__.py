"""mildsde: spectral solvers and verification experiments for dissipative
stochastic evolution equations driven by Q-Wiener and compensated Poisson
noise."""

__version__ = "0.1.0"

from .errors import BlowUpError, ConfigurationError, HypothesisError, StiffnessWarning
from .space import (HilbertSpace, SpectralOperator, dirichlet_laplacian, resolvent_apply,
                    yosida_apply)
from .model import (DiffusionCoefficient, EquationSpec, JumpCoefficient, MarkSpace,
                    Nonlinearity, check_dissipativity_triplet, weighted_norm)
from .noise import (POISSON_SEED_OFFSET, NoiseBatch, PoissonPath, TimeGrid, WienerPath,
                    coarsen_wiener, jump_cell_counts, poisson_integral, quadratic_mark_sum,
                    sample_jump_table, sample_noise_batch, sample_poisson, sample_wiener,
                    sample_wiener_rows, shared_draws, step_sq_integral)
from .solver import (SCHEMES, SchemeConfig, Trajectory, ito_energy_residual, ito_energy_terms,
                     regularized_coupling_identity, solve, solve_exp_euler, solve_linear_data,
                     solve_resolvent_implicit, solve_yosida_explicit, step_ensemble)
from .analysis import (FAIL, INCONCLUSIVE, PASS, contraction_experiment,
                       coupling_uniqueness_experiment, fit_order, generalized_solution_cauchy,
                       stability_estimate_experiment, weak_residual_experiment,
                       weak_solution_residual, yosida_convergence_experiment,
                       yosida_coupling_bound)
