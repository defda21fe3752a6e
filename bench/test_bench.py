"""Self-test of the benchmark harness: traced counts, restoration, the seed.

    python3 -m pytest -q bench/test_bench.py

The counts are exact properties of the workload configs and of the package
as the benchmark was written against it; a change that alters how much work
a workload does must update them and say why.
"""

from __future__ import annotations

import json
import sys

import pytest

from repetition import PARSES_PER_REPETITION, import_package, repetition
from run import ROOT, WORKLOADS, seeded_config, summarize
from spans import TARGETS, Target, Tracer

SEED = 20260809


def _config(tmp_path_factory, workload, seed=SEED):
    directory = tmp_path_factory.mktemp(workload)
    path = directory / f"{workload}.cfg"
    path.write_text(seeded_config(WORKLOADS[workload], seed, directory / "out"))
    return path


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = _config(tmp_path_factory, workload)
        return cache[workload]

    return get


@pytest.fixture(scope="module")
def traced(configs):
    cache = {}

    def get(workload):
        if workload not in cache:
            cache[workload] = repetition(configs(workload), trace=True)
        return cache[workload]

    return get


def _attributes():
    import_package()
    from mildsde import cli
    snapshot = {(name, attr): value
                for name, module in sys.modules.items()
                if module is not None and (name == "mildsde" or name.startswith("mildsde."))
                for attr, value in vars(module).items()}
    snapshot.update({("EXPERIMENTS", k): v for k, v in cli.EXPERIMENTS.items()})
    return snapshot


def _all_pass(rep):
    return rep["status"] == 0 and rep["error"] is None and \
        all(rep["verdicts"].get(n) == "PASS" for n in rep["experiments"])


def test_cubic_rd_counts(traced):
    rep = traced("cubic-rd")
    m = rep["layers"]
    assert _all_pass(rep)
    assert m["noise.sample_wiener.calls"] == 3002
    assert m["noise.sample_poisson.calls"] == 3002
    assert m["analysis.ensemble.calls"] == 9
    assert m["analysis.ensemble.member_steps"] == 1_152_000
    assert m["model.check_dissipativity_triplet.calls"] == 4
    # contraction, stability and cauchy re-draw the same 1000 path pairs
    assert m["noise.sample_wiener.distinct_frac"] == pytest.approx(1001 / 3002)
    assert m["noise.sample_poisson.distinct_frac"] == pytest.approx(1001 / 3002)
    assert m["model.check_dissipativity_triplet.distinct_frac"] == pytest.approx(0.75)
    assert m["solver.ito_energy_terms.calls"] == 0
    assert rep["missing"] == []


def test_acceptance_counts(traced):
    rep = traced("acceptance")
    m = rep["layers"]
    assert _all_pass(rep)
    assert m["noise.sample_wiener.calls"] == 13_123
    assert m["noise.sample_poisson.calls"] == 23_123
    assert m["noise.poisson_integral.calls"] == 10_000
    assert m["noise.quadratic_mark_sum.calls"] == 10_400
    assert m["solver.ito_energy_terms.calls"] == 400
    assert m["solver.ito_energy_terms.steps"] == 96_000
    assert all(m[f"analysis.{name}.s"] > 0 for name in rep["experiments"])


def test_fine_path_counts(traced):
    rep = traced("fine-path")
    m = rep["layers"]
    assert _all_pass(rep)
    assert m["solver.solve.member_steps"] == 52_480
    assert m["analysis.ensemble.calls"] == 0
    assert m["noise.sample_wiener.calls"] == 3
    assert {"analysis.ensemble", "analysis.cauchy", "solver.ito_energy_terms"} <= set(rep["idle"])
    assert not {"solver.solve", "analysis.coupling"} & set(rep["idle"])


def test_untraced_run_touches_no_attribute_and_writes_the_traced_bytes(configs, traced):
    traced_artifacts = traced("fine-path")["artifacts"]
    before = _attributes()
    rep = repetition(configs("fine-path"))
    after = _attributes()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert len(rep["setup_s"]) == PARSES_PER_REPETITION
    assert rep["artifacts"] == traced_artifacts


def test_printed_metrics_are_the_benchmark_metrics(configs, traced):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = repetition(configs("fine-path"))
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        reps = [plain, traced("fine-path")] if trace else [plain, plain]
        result = summarize("fine-path", SEED, trace, {"reps": reps, "elapsed": 1.0})
        assert result["correct"]
        assert set(result["metrics"]) == {m["name"] for m in declared[kind]}
        assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared[kind])


def test_tracer_restores_attributes_and_reports_missing_targets():
    before = _attributes()
    ghost = Target("analysis.ghost", "mildsde.analysis", "_no_such_function")
    tracer = Tracer(TARGETS + (ghost,))
    with tracer:
        from mildsde import analysis, solver
        assert analysis.sample_wiener is not before[("mildsde.noise", "sample_wiener")]
        assert solver.jump_cell_counts is analysis.jump_cell_counts
    after = _attributes()
    assert all(after[k] is v for k, v in before.items())
    assert tracer.missing == ["mildsde.analysis._no_such_function"]
    metrics = tracer.metrics()
    assert not any(k.startswith("analysis.ghost") for k in metrics)
    assert metrics["noise.sample_wiener.calls"] == 0


def test_seed_is_written_into_the_config(tmp_path_factory):
    import_package()
    from mildsde import cli
    config = cli.parse_config(_config(tmp_path_factory, "cubic-rd", seed=7))
    assert config.seed == 7
    assert config.margin.seed == 7
