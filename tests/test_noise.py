import hashlib
import warnings

import numpy as np
import pytest

from mildsde.model import MarkSpace
from mildsde import noise
from mildsde.noise import (POISSON_SEED_OFFSET, NoiseBatch, PoissonPath, TimeGrid, WienerPath,
                           _resolve_time_ties, coarsen_wiener, jump_cell_counts,
                           poisson_integral, quadratic_mark_sum, sample_jump_table,
                           sample_noise_batch, sample_poisson, sample_wiener,
                           sample_wiener_rows, shared_draws, step_sq_integral)
from mildsde.space import HilbertSpace


def _one_path_table(times, marks, horizon=1.0, atom_count=2):
    """A PoissonPath of one path with the given jumps."""
    times, marks = np.asarray(times, dtype=float), np.asarray(marks, dtype=np.int64)
    return PoissonPath(times, marks, horizon, atom_count, 0, np.array([0, times.size]))


def _wiener_oracle(q, grid, seed):
    """Increments (steps, d) of the stream default_rng(seed), drawn inline."""
    z = np.random.default_rng(seed).standard_normal((grid.steps, len(q)))
    return z * np.sqrt(grid.dt * np.asarray(q, dtype=float))


class TestTimeGrid:
    def test_nodes(self):
        grid = TimeGrid(1.0, 4)
        assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.times[0] == 0.0 and grid.times[-1] == 1.0
        assert np.all(np.diff(grid.times) > 0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, -1.0])
    def test_refuses_a_horizon_that_is_not_finite_and_positive(self, horizon):
        # an infinite horizon gave the nodes [nan, inf, inf, ...]
        with pytest.raises(ValueError, match="horizon must be finite and positive"):
            TimeGrid(horizon, 4)

    def test_refuses_a_fractional_step_count(self):
        # 2.5 steps gave the nodes [0, 0.4, 0.8, 1.2], past the horizon
        with pytest.raises(TypeError):
            TimeGrid(1.0, 2.5)

    def test_takes_numpy_integer_steps(self):
        grid = TimeGrid(1.0, np.int64(4))
        assert grid == TimeGrid(1.0, 4) and type(grid.steps) is int
        assert np.array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_coarsen_refine(self):
        grid = TimeGrid(2.0, 8)
        assert grid.coarsen(4).steps == 2
        with pytest.raises(ValueError):
            grid.coarsen(3)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)


class TestWienerSampling:
    def test_zero_covariance_gives_zero_path(self):
        path = sample_wiener(np.zeros(3), TimeGrid(1.0, 16), seed=0)
        assert np.all(path.increments == 0.0)

    def test_seed_determinism(self):
        grid = TimeGrid(1.0, 32)
        q = np.array([1.0, 2.0])
        a = sample_wiener(q, grid, seed=42)
        b = sample_wiener(q, grid, seed=42)
        c = sample_wiener(q, grid, seed=43)
        assert np.array_equal(a.increments, b.increments)
        assert not np.array_equal(a.increments, c.increments)

    def test_increment_moments(self):
        # Monte Carlo oracle: 1e5 regenerations of the first increment (the first
        # increment of sample_wiener(q, grid, seed=s) for s < 1e5, drawn in one
        # batch), q = 2 and dt = 0.01 so the variance target is 0.02
        grid = TimeGrid(0.01, 1)
        q = np.array([2.0])
        draws = sample_wiener_rows(q, grid, 0, 100_000)[:, 0, 0]
        se_mean = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean()) < 3 * se_mean
        var = draws.var(ddof=1)
        se_var = var * np.sqrt(2.0 / (draws.size - 1))
        assert abs(var - 0.02) < 3 * se_var

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            sample_wiener(np.array([1.0, -0.1]), TimeGrid(1.0, 4), seed=0)

    def test_coarsen_sums_increments(self):
        fine = sample_wiener(np.array([1.0, 0.5]), TimeGrid(1.0, 32), seed=5)
        coarse = coarsen_wiener(fine, 4)
        assert coarse.grid.steps == 8 and coarse.increments.shape == (1, 8, 2)
        manual = fine.increments.reshape(1, 8, 4, 2).sum(axis=2)
        assert np.array_equal(coarse.increments, manual)
        with pytest.raises(ValueError):
            coarsen_wiener(fine, 5)

    def test_coarsen_takes_an_integer_factor_only(self):
        # a fractional factor is refused, not truncated to 2 steps of 4
        fine = sample_wiener(np.array([1.0, 0.5]), TimeGrid(1.0, 8), seed=5)
        with pytest.raises(TypeError):
            coarsen_wiener(fine, 2.9)
        with pytest.raises(TypeError):
            fine.grid.coarsen(2.0)
        manual = fine.increments.reshape(1, 2, 4, 2).sum(axis=2)
        for factor in (4, np.int64(4)):
            coarse = coarsen_wiener(fine, factor)
            assert coarse.grid == TimeGrid(1.0, 2) and type(coarse.grid.steps) is int
            assert np.array_equal(coarse.increments, manual)

    def test_batch_coarsens_and_accumulates_like_its_members(self):
        grid = TimeGrid(1.0, 32)
        members = [sample_wiener(np.array([1.0, 0.5]), grid, seed=s) for s in (5, 6, 7)]
        batch = WienerPath(grid, members[0].q, np.concatenate([w.increments for w in members]), 5)
        coarse = coarsen_wiener(batch, 4)
        assert coarse.increments.shape == (3, 8, 2)
        for i, w in enumerate(members):
            assert np.array_equal(coarse.increments[i], coarsen_wiener(w, 4).increments[0])

    def test_increments_are_one_row_per_path(self):
        grid = TimeGrid(1.0, 4)
        path = sample_wiener(np.array([1.0, 0.5]), grid, seed=3)
        assert path.increments.shape == (1, 4, 2)
        assert np.array_equal(path.increments[0], _wiener_oracle([1.0, 0.5], grid, 3))
        with pytest.raises(ValueError, match="paths x 4 steps x 2 modes"):
            WienerPath(grid, path.q, path.increments[0], 3)


@pytest.fixture(scope="module")
def poisson_ensemble():
    # shared 1e5 replications: two atoms with weights 1 and 3, horizon 1
    marks = MarkSpace((0.0, 1.0), (1.0, 3.0))
    # sample_poisson(marks, 1.0, seed=s) for s < 1e5, drawn as one table
    table = noise._draw_jump_table(marks, 1.0, 0, 100_000)
    return np.diff(table.offsets), int(np.sum(table.marks == 1)), int(table.offsets[-1])


class TestPoissonSampling:
    def test_zero_mass_is_empty(self):
        path = sample_poisson(MarkSpace((1.0,), (0.0,)), 2.0, seed=0)
        assert path.count == 0

    def test_count_distribution(self, poisson_ensemble):
        counts, _, _ = poisson_ensemble
        # horizon * mass = 4; Poisson variance equals the mean
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - 4.0) < 3 * se

    def test_mark_frequencies(self, poisson_ensemble):
        _, atom_one, total = poisson_ensemble
        freq = atom_one / total
        se = np.sqrt(0.75 * 0.25 / total)
        assert abs(freq - 0.75) < 3 * se

    def test_times_sorted_unique_in_range(self):
        marks = MarkSpace((0.0, 1.0), (5.0, 5.0))
        path = sample_poisson(marks, 1.0, seed=7)
        assert np.all(np.diff(path.times) > 0)
        assert path.times.min() > 0.0 and path.times.max() <= 1.0

    def test_seed_determinism(self):
        marks = MarkSpace((0.0, 1.0), (2.0, 2.0))
        a = sample_poisson(marks, 1.0, seed=9)
        b = sample_poisson(marks, 1.0, seed=9)
        assert np.array_equal(a.times, b.times) and np.array_equal(a.marks, b.marks)

    def test_tie_resolution(self):
        rng = np.random.default_rng(0)
        times = np.array([0.25, 0.5, 0.25, 0.75, 0.5])
        resolved = _resolve_time_ties(times, rng, 1.0)
        assert len(np.unique(resolved)) == len(resolved)
        # first occurrences keep their values
        assert 0.25 in resolved and 0.5 in resolved and 0.75 in resolved

    def test_tie_redraws_consume_the_generator_as_the_first_occurrence_rule(self):
        # reference: re-draw every non-first occurrence (np.unique) until distinct
        def reference(times, rng, horizon):
            while True:
                _, first = np.unique(times, return_index=True)
                dup = np.ones(times.size, dtype=bool)
                dup[first] = False
                if not dup.any():
                    return np.sort(times)
                times = times.copy()
                times[dup] = horizon * (1.0 - rng.random(int(dup.sum())))

        times = np.array([0.5, 0.25, 0.5, 0.75, 0.25, 0.5])
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        resolved = _resolve_time_ties(times, rng_a, 1.0)
        assert np.all(np.diff(resolved) > 0)
        assert np.array_equal(resolved, reference(times, rng_b, 1.0))
        assert rng_a.random() == rng_b.random()

    def test_draws_match_the_reference_sampler(self):
        # count, times (re-drawn on ties, then sorted), marks: the draw order
        # fixes every path bit for bit
        marks = MarkSpace((-1.0, 0.0, 1.0), (2.0, 0.5, 1.5))
        digest = hashlib.sha256()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            count = int(rng.poisson(2.0 * marks.total_mass))
            times = np.sort(2.0 * (1.0 - rng.random(count)))
            assert np.unique(times).size == count
            idx = rng.choice(3, size=count, p=marks.weight_array / marks.total_mass)
            path = sample_poisson(marks, 2.0, seed)
            assert np.array_equal(path.times, times)
            assert np.array_equal(path.marks, idx if count else np.zeros(0, dtype=np.int64))
            digest.update(path.times.tobytes())
            digest.update(path.marks.astype(np.int64).tobytes())
        # the same 300 paths as drawn by the np.unique-based tie rule
        assert digest.hexdigest() == (
            "aa63c3c41e3af5ea4993b4af8996fc5847d7c9ee6438a1332d90cdcfab30490e")

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            sample_poisson(MarkSpace((0.0,), (1.0,)), 0.0, seed=0)


def _wiener_integral(phi, path: WienerPath) -> np.ndarray:
    """Integral of a grid step process against the increments of a one-path
    WienerPath over its grid."""
    return np.einsum("mnd,md->n", phi, path.increments[0])


class TestItoIntegral:
    def test_zero_integrand(self):
        space = HilbertSpace(3, 1.0)
        assert step_sq_integral(np.zeros((8, 3, 2)), [1.0, 1.0], TimeGrid(1.0, 8), space) == 0.0

    @pytest.mark.parametrize("kind", ["wiener", "poisson"])
    def test_isometry(self, kind):
        # Monte Carlo oracle over 1e4 paths for a deterministic step integrand x:
        # E|int x dW|^2 is the integral of |x|_Q^2 (weights q), and the second
        # moment of the compensated jump integral that of |x|_m^2 (weights m)
        grid = TimeGrid(1.0, 8)
        rng = np.random.default_rng(3)
        if kind == "wiener":
            space, weights = HilbertSpace(5, 1.0 / 6.0), np.array([1.0, 0.3])
            x = 0.7 * rng.standard_normal((8, 5, 2))
            def integral(s):
                return _wiener_integral(x, sample_wiener(weights, grid, seed=s))
        else:
            marks = MarkSpace((-1.0, 1.0), (1.0, 3.0))
            space, weights = HilbertSpace(4, 0.2), marks.weight_array
            x = 0.5 * rng.standard_normal((8, 4, 2))
            def integral(s):
                return poisson_integral(x, sample_poisson(marks, 1.0, seed=s), marks, grid)[0]
        sq = np.array([space.sq_norms(integral(s)) for s in range(10_000)])
        exact = step_sq_integral(x, weights, grid, space)
        assert abs(sq.mean() - exact) / exact < 0.05

    def test_refuses_a_column_count_other_than_the_weights(self):
        # three columns against one weight once broadcast to 6.0
        with pytest.raises(ValueError, match="3 columns, expected 1"):
            step_sq_integral(np.ones((8, 2, 3)), [1.0], TimeGrid(1.0, 8), HilbertSpace(2, 1.0))

    def test_refinement_consistency(self):
        # a coarse-cell step integrand integrates identically on the refined
        # grid because increments aggregate additively
        grid_fine = TimeGrid(1.0, 32)
        fine = sample_wiener(np.array([1.0, 0.4]), grid_fine, seed=7)
        coarse = coarsen_wiener(fine, 4)
        phi_coarse = np.random.default_rng(8).standard_normal((8, 3, 2))
        phi_fine = np.repeat(phi_coarse, 4, axis=0)
        a = _wiener_integral(phi_fine, fine)
        b = _wiener_integral(phi_coarse, coarse)
        assert np.allclose(a, b, atol=1e-13)


class TestPoissonIntegral:
    def setup_method(self):
        self.marks = MarkSpace((-1.0, 1.0), (1.0, 3.0))
        self.grid = TimeGrid(1.0, 8)
        self.space = HilbertSpace(4, 0.2)

    def test_zero_integrand(self):
        path = sample_poisson(self.marks, 1.0, seed=0)
        out = poisson_integral(np.zeros((8, 4, 2)), path, self.marks, self.grid)
        assert np.all(out == 0.0)

    def _compensator(self, g):
        """dt * sum_j m_j g[cell, :, j] summed over the cells."""
        return self.grid.dt * np.einsum("mnj,j->n", g, self.marks.weight_array)

    def test_uncompensated_counts_atoms(self):
        path = sample_poisson(self.marks, 1.0, seed=1)
        g = np.zeros((8, 4, 2))
        g[:, 0, 0] = 1.0
        g[:, 1, 1] = 1.0
        out = poisson_integral(g, path, self.marks, self.grid) + self._compensator(g)
        assert out.shape == (1, 4)
        assert out[0, 0] == np.sum(path.marks == 0)
        assert out[0, 1] == np.sum(path.marks == 1)

    def test_compensated_mean_is_zero(self):
        g = 0.5 * np.random.default_rng(2).standard_normal((8, 4, 2))
        vals = np.empty((10_000, 4))
        for s in range(10_000):
            path = sample_poisson(self.marks, 1.0, seed=s)
            vals[s] = poisson_integral(g, path, self.marks, self.grid)
        proj = vals.sum(axis=1)
        se = proj.std(ddof=1) / np.sqrt(proj.shape[0])
        assert abs(proj.mean()) < 3 * se

    def test_rejects_mismatched_mark_space(self):
        other = MarkSpace((0.0,), (1.0,))
        path = sample_poisson(other, 1.0, seed=4)
        with pytest.raises(ValueError):
            poisson_integral(np.zeros((8, 4, 2)), path, self.marks, self.grid)
        # the jump sum read every jump of this one-atom path as atom 0 of two
        with pytest.raises(ValueError, match="different mark space"):
            quadratic_mark_sum(np.zeros((8, 4, 2)), path, self.marks, self.grid, self.space)
        with pytest.raises(ValueError):
            poisson_integral(np.zeros((8, 4, 2)), PoissonPath.stack([path, path]),
                             self.marks, self.grid)
        with pytest.raises(ValueError):
            PoissonPath.stack([sample_poisson(self.marks, 1.0, seed=4), path])

    def test_matches_a_per_jump_reference(self):
        g = np.random.default_rng(5).standard_normal((8, 4, 2))
        path = sample_poisson(self.marks, 1.0, seed=6)
        assert path.count > 2
        expected = np.zeros(4)
        for s, j in zip(path.times, path.marks):
            expected += g[int(np.ceil(s / 0.125)) - 1, :, j]
        got = poisson_integral(g, path, self.marks, self.grid)
        assert np.array_equal(got, expected[None] - self._compensator(g))

    def test_batch_equals_single_paths_exactly(self):
        g = np.random.default_rng(4).standard_normal((8, 4, 2))
        empty = _one_path_table([], [])
        paths = [sample_poisson(self.marks, 1.0, seed=s) for s in range(20)] + [empty]
        batch = poisson_integral(g, PoissonPath.stack(paths), self.marks, self.grid)
        assert batch.shape == (21, 4)
        for row, path in zip(batch, paths):
            single = poisson_integral(g, path, self.marks, self.grid)
            assert np.array_equal(row[None], single)


class TestQuadraticMarkSum:
    def setup_method(self):
        self.marks = MarkSpace((-1.0, 1.0), (1.5, 2.5))
        self.grid = TimeGrid(1.0, 8)
        self.space = HilbertSpace(3, 1.0)

    def test_no_jumps(self):
        empty = _one_path_table([], [])
        D = np.random.default_rng(0).standard_normal((8, 3, 2))
        jump_sq = quadratic_mark_sum(D, empty, self.marks, self.grid, self.space)
        assert np.array_equal(jump_sq, [0.0])

    def test_unit_magnitude_compensator(self):
        # columns of unit H-norm make the compensator exactly mass * T
        D = np.zeros((8, 3, 2))
        D[:, 0, :] = 1.0  # |column|_H = 1 with weight 1
        comp = step_sq_integral(D, self.marks.weight_array, self.grid, self.space)
        assert comp == pytest.approx(self.marks.total_mass * 1.0, rel=1e-12)

    def test_batch_matches_a_per_jump_reference(self):
        D = np.random.default_rng(3).standard_normal((8, 3, 2))
        empty = _one_path_table([], [])
        paths = [sample_poisson(self.marks, 1.0, seed=s) for s in range(20)] + [empty]
        batch = quadratic_mark_sum(D, PoissonPath.stack(paths), self.marks, self.grid, self.space)
        assert batch.shape == (21,) and batch[-1] == 0.0
        for value, path in zip(batch, paths):
            expected = 0.0
            for s, j in zip(path.times, path.marks):
                col = D[int(np.ceil(s / 0.125)) - 1, :, j]
                expected += self.space.weight * float(np.dot(col, col))
            assert value == pytest.approx(expected, rel=1e-14, abs=0.0)
            single = quadratic_mark_sum(D, path, self.marks, self.grid, self.space)
            assert np.array_equal(single, [value])

    def test_expectation_identity(self):
        D = 0.6 * np.random.default_rng(2).standard_normal((8, 3, 2))
        comp = step_sq_integral(D, self.marks.weight_array, self.grid, self.space)
        diffs = np.empty(10_000)
        for s in range(10_000):
            path = sample_poisson(self.marks, 1.0, seed=s)
            diffs[s], = quadratic_mark_sum(D, path, self.marks, self.grid, self.space) - comp
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) < 3 * se


class TestJumpBinning:
    def test_cells_are_left_open_right_closed(self):
        grid = TimeGrid(1.0, 4)
        # a jump exactly at a node belongs to the cell ending there
        path = _one_path_table([0.25, 0.3, 1.0], [0, 1, 0])
        counts = jump_cell_counts(path, grid)[0]
        assert counts[0, 0] == 1.0   # t = 0.25 -> cell (0, 0.25]
        assert counts[1, 1] == 1.0   # t = 0.30 -> cell (0.25, 0.5]
        assert counts[3, 0] == 1.0   # t = 1.0  -> cell (0.75, 1.0]

    def test_refuses_a_grid_of_another_horizon(self):
        # binned on a grid of half its horizon, this path's 6 jumps once gave the
        # per-cell counts [0, 2, 0, 4], 4 of them from after 0.5
        marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
        path = sample_poisson(marks, 1.0, 7)
        assert path.count == 6
        grid = TimeGrid(0.5, 4)
        g = np.zeros((4, 3, 2))
        for reduce in (lambda: jump_cell_counts(path, grid),
                       lambda: poisson_integral(g, path, marks, grid),
                       lambda: quadratic_mark_sum(g, path, marks, grid, HilbertSpace(3, 1.0))):
            with pytest.raises(ValueError, match="horizon 1.0 does not match grid 0.5"):
                reduce()
        # a horizon within the relative tolerance bins as the grid's own
        near = _one_path_table(path.times, path.marks, horizon=1.0 + 1e-15)
        assert np.array_equal(jump_cell_counts(near, TimeGrid(1.0, 4)),
                              jump_cell_counts(path, TimeGrid(1.0, 4)))

    def test_total_count_preserved(self):
        marks = MarkSpace((0.0, 1.0), (3.0, 1.0))
        path = sample_poisson(marks, 1.0, seed=3)
        counts = jump_cell_counts(path, TimeGrid(1.0, 16))
        assert counts.sum() == path.count

    def test_batch_stacks_member_counts(self):
        marks = MarkSpace((0.0, 1.0), (3.0, 1.0))
        grid = TimeGrid(1.0, 16)
        paths = [sample_poisson(marks, 1.0, seed=s) for s in range(5)]
        expected = np.concatenate([jump_cell_counts(p, grid) for p in paths])
        assert np.array_equal(jump_cell_counts(PoissonPath.stack(paths), grid), expected)

    def test_batch_bins_its_table_once(self):
        batch = sample_noise_batch(np.array([1.0]), MarkSpace((0.0, 1.0), (3.0, 1.0)),
                                   TimeGrid(1.0, 16), 5, 4)
        counts = batch.cell_counts
        assert np.array_equal(counts, jump_cell_counts(batch.jumps, TimeGrid(1.0, 16)))
        assert counts.shape == (4, 16, 2) and not counts.flags.writeable
        assert batch.cell_counts is counts


class TestNoiseBatch:
    marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
    q = np.array([1.0, 0.25])
    grid = TimeGrid(1.0, 16)

    def test_unpacks_like_the_pair_and_counts_members(self):
        batch = sample_noise_batch(self.q, self.marks, self.grid, 3, 4)
        wiener, jumps = batch
        assert (wiener, jumps) == (batch[0], batch[1]) == (batch.wiener, batch.jumps)
        assert len(batch) == 4 and batch.grid is self.grid

    def test_rows_and_coarsen_keep_the_member_noise(self):
        batch = sample_noise_batch(self.q, self.marks, self.grid, 3, 4)
        row = batch.rows(2, 3)
        assert len(row) == 1 and row.wiener.seed == 5 and row.jumps.seed == batch.jumps.seed + 2
        assert np.array_equal(row.cell_counts, batch.cell_counts[2:3])
        coarse = batch.coarsen(4)
        assert coarse.grid.steps == 4 and coarse.jumps is batch.jumps
        assert np.array_equal(coarse.cell_counts, batch.cell_counts.reshape(4, 4, 4, 2).sum(axis=2))
        with pytest.raises(TypeError):
            batch.rows(0, 2).coarsen(2.5)

    def test_refuses_unequal_member_counts(self):
        batch = sample_noise_batch(self.q, self.marks, self.grid, 3, 4)
        with pytest.raises(ValueError, match="4 wiener paths but 2 jump paths"):
            NoiseBatch(batch.wiener, batch.jumps.rows(0, 2))


class TestSharedDraws:
    marks = MarkSpace((-1.0, 1.0), (2.0, 2.0))
    q = np.array([1.0, 0.25])
    grid = TimeGrid(1.0, 16)

    @staticmethod
    def _same_table(a, b):
        return (a.members == b.members and a.seed == b.seed
                and all(np.array_equal(getattr(a, name), getattr(b, name))
                        for name in ("times", "marks", "offsets")))

    def test_table_prefix_is_a_smaller_draw_and_the_member_paths(self):
        table = sample_jump_table(self.marks, 1.0, 11, 40)
        assert self._same_table(table.rows(0, 25), sample_jump_table(self.marks, 1.0, 11, 25))
        paths = [sample_poisson(self.marks, 1.0, 11 + POISSON_SEED_OFFSET + i) for i in range(40)]
        assert table.count == sum(p.count for p in paths) and min(p.count for p in paths) == 0
        for i, path in enumerate(paths):
            row = table.rows(i, i + 1)
            assert row.seed == path.seed
            assert np.array_equal(row.times, path.times) and np.array_equal(row.marks, path.marks)
        assert self._same_table(PoissonPath.stack(paths), table)
        assert self._same_table(PoissonPath.stack([table.rows(0, 17), table.rows(17, 40)]), table)

    def test_batch_members_follow_the_seeding_contract(self):
        batch = sample_noise_batch(self.q, self.marks, self.grid, 3, 6)
        assert len(batch) == 6 and batch.wiener.increments.shape == (6, 16, 2)
        for i in range(6):
            assert np.array_equal(batch.wiener.increments[i], _wiener_oracle(self.q, self.grid, 3 + i))
        assert self._same_table(batch.jumps, sample_jump_table(self.marks, 1.0, 3, 6))
        with pytest.raises(ValueError):
            sample_noise_batch(self.q, self.marks, self.grid, 3, 0)

    def test_outside_a_run_every_call_draws(self, draw_counts):
        calls = draw_counts
        for _ in range(2):
            sample_noise_batch(self.q, self.marks, self.grid, 3, 5)
            sample_jump_table(self.marks, 1.0, 3, 4)
        assert calls == {"wiener": 10, "poisson": 18}

    def test_inside_a_run_each_member_is_drawn_once(self, draw_counts):
        fresh = sample_noise_batch(self.q, self.marks, self.grid, 3, 8)
        calls = draw_counts
        calls.update(wiener=0, poisson=0)
        with shared_draws():
            sample_noise_batch(self.q, self.marks, self.grid, 3, 5)
            assert calls == {"wiener": 5, "poisson": 5}
            smaller = sample_noise_batch(self.q, self.marks, self.grid, 3, 3)
            assert calls == {"wiener": 5, "poisson": 5}
            larger = sample_noise_batch(self.q, self.marks, self.grid, 3, 8)
            assert calls == {"wiener": 8, "poisson": 8}
            # the jump paths depend on the horizon only, the Wiener paths on the grid
            sample_jump_table(self.marks, 1.0, 3, 8)
            sample_noise_batch(self.q, self.marks, TimeGrid(1.0, 32), 3, 8)
            assert calls == {"wiener": 16, "poisson": 8}
            sample_jump_table(self.marks, 0.5, 3, 2)
            sample_jump_table(self.marks, 1.0, 4, 2)
            assert calls["poisson"] == 12
        assert noise._drawn is None
        assert np.array_equal(larger.wiener.increments, fresh.wiener.increments)
        assert np.array_equal(smaller.wiener.increments, fresh.wiener.increments[:3])
        assert self._same_table(larger.jumps, fresh.jumps)
        assert self._same_table(smaller.jumps, fresh.jumps.rows(0, 3))
        assert not larger.wiener.increments.flags.writeable
        sample_noise_batch(self.q, self.marks, self.grid, 3, 5)
        assert calls == {"wiener": 21, "poisson": 17}


def _same_bits(a: PoissonPath, b: PoissonPath) -> bool:
    return ((a.members, a.seed, a.horizon, a.atom_count) == (b.members, b.seed, b.horizon, b.atom_count)
            and all(getattr(a, name).dtype == getattr(b, name).dtype
                    and getattr(a, name).tobytes() == getattr(b, name).tobytes()
                    for name in ("times", "marks", "offsets")))


class CoarseUniforms(np.random.Generator):
    """Uniforms rounded down to multiples of 1/8 one by one, so jump times often tie.

    The rounding is elementwise, so a stream split into calls differently
    still yields the same values.
    """

    def random(self, size=None):
        return np.floor(super().random(size) * 8.0) / 8.0


class TestBatchSeeding:
    q = np.array([1.0, 0.0, 0.25])
    grid = TimeGrid(0.5, 8)

    def test_hashed_states_equal_pcg64_seeding(self):
        run = 20260809 + POISSON_SEED_OFFSET
        seeds = [*range(3000), 2**32 - 1, 2**32, 2**64 - 1, 2**127, 2**128 - 1,
                 *range(run, run + 1100)]
        states = noise._pcg64_start_states(seeds)
        assert len(states) == len(seeds)
        for seed, (state, inc) in zip(seeds, states):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}, seed

    @pytest.mark.parametrize("seeds", [[-1], [2**128], range(-1, 3), [0, 2**128]])
    def test_hasher_rejects_seeds_outside_its_domain(self, seeds):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*128\)"):
            noise._pcg64_start_states(seeds)

    def test_member_generators_start_where_default_rng_starts(self):
        # across a hashing chunk, and with a buffered half-word left behind by
        # each member, which must not leak into the next
        seeds = range(2**40 - 5, 2**40 + noise._SEED_CHUNK + 5)
        for seed, rng in zip(seeds, noise._member_generators(seeds), strict=True):
            drawn = rng.integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(drawn, np.random.default_rng(seed).integers(
                0, 2**32, size=3, dtype=np.uint32)), seed

    def test_wiener_rows_equal_single_paths(self):
        rows = sample_wiener_rows(self.q, self.grid, 17, 6)
        single = np.stack([_wiener_oracle(self.q, self.grid, 17 + i) for i in range(6)])
        assert rows.shape == (6, 8, 3) and rows.tobytes() == single.tobytes()
        with pytest.raises(ValueError):
            sample_wiener_rows(-self.q, self.grid, 17, 2)

    @pytest.mark.parametrize("marks", [
        pytest.param(MarkSpace((0.5,), (3.0,)), id="one_atom"),
        pytest.param(MarkSpace((-1.0, 0.0, 1.0), (2.0, 0.0, 1.5)), id="zero_weight_atom"),
        pytest.param(MarkSpace((0.0,), (0.0,)), id="zero_mass"),
    ])
    def test_jump_table_equals_single_paths(self, marks):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = sample_jump_table(marks, 0.75, 5, 300)
            paths = [sample_poisson(marks, 0.75, 5 + POISSON_SEED_OFFSET + i) for i in range(300)]
        assert _same_bits(table, PoissonPath.stack(paths))
        assert not (table.times.flags.writeable or table.marks.flags.writeable)
        assert (table.count == 0) == (marks.total_mass == 0.0)
        if marks.total_mass:
            assert np.all(marks.weight_array[table.marks] > 0.0)

    def test_time_tie_is_redrawn_by_sample_poisson(self, monkeypatch):
        marks = MarkSpace((-1.0, 1.0), (0.5, 1.5))
        monkeypatch.setattr(np.random, "Generator", CoarseUniforms)
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: CoarseUniforms(np.random.PCG64(seed)))
        redrawn = []

        def counted(marks, horizon, seed):
            redrawn.append(seed)
            return sample_poisson(marks, horizon, seed)

        monkeypatch.setattr(noise, "sample_poisson", counted)
        table = sample_jump_table(marks, 1.0, 3, 40)
        paths = [sample_poisson(marks, 1.0, 3 + POISSON_SEED_OFFSET + i) for i in range(40)]
        assert redrawn and set(redrawn) < {path.seed for path in paths}
        for seed in redrawn:
            # the first draw of a redrawn member does tie
            rng = np.random.default_rng(seed)
            times = np.sort(rng.random(int(rng.poisson(marks.total_mass))))
            assert np.any(times[1:] == times[:-1])
        assert _same_bits(table, PoissonPath.stack(paths))
