import configparser
import hashlib
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mildsde import analysis, cli, model, noise, solver, space
from mildsde.cli import OPTIONS, RunConfig, main, parse_config, run
from mildsde.errors import ConfigurationError
from mildsde.model import check_dissipativity_triplet
from mildsde.textio import atomic_write_text, write_plot_data

from conftest import make_cubic_spec

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

MINIMAL = """
[equation]
n = 3
operator = diagonal
eigenvalues = 0.5 1.0 2.0
f_coeffs = 0 1
eta = 0.0
alpha = 0.0
T = 1.0
u0 = 0.5 0.25 0.1
q = 1.0
b_base = 0.1 ; 0.05 ; 0.02
z_atoms = 0.0
z_weights = 0.0
g_base = zeros

[experiment]
seed = 7
experiments =

[output]
directory = out
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def set_key(text, section, key, value):
    """The config text with ``key = value`` in [section], replacing the key's line if present."""
    head, sep, tail = text.partition(f"[{section}]\n")
    assert sep, section
    body, nxt, rest = tail.partition("\n[")
    body, found = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", body, count=1)
    if not found:
        body = f"{key} = {value}\n" + body
    return head + sep + body + nxt + rest


class TestParseConfig:
    def test_minimal_config_echoes_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        assert cfg.experiments == ()
        assert cfg.options == {}
        assert cfg.seed == 7
        only = parse_config(write_cfg(tmp_path, MINIMAL), only=("stability", "wiener_isometry"))
        assert only.experiments == ("stability", "wiener_isometry")
        assert only.options["stability"]["ensemble"] == 1000
        assert only.options["wiener_isometry"]["paths"] == 10000
        assert cfg.output_dir == Path("out")
        assert cfg.formats == ("report", "plotdata")
        assert cfg.equation.A.dim == 3
        # f = r, additive noise, alpha = 0: the margin is 2 inf f' = 2
        assert cfg.margin == 2.0

    def test_shipped_margins_are_exact(self):
        # f = r^3 - r: 2 * (-1) - L_B^2 - L_G^2 with L_B^2 = 0.05^2 and
        # L_G^2 = 2 * 2 * 0.02^2; the overrides use f = r^3 + r/2
        cfg = parse_config(CONFIG_DIR / "cubic-rd.cfg")
        assert cfg.margin == pytest.approx(-2.0041, abs=1e-12)
        contraction = cfg.equation_for("contraction")
        assert check_dissipativity_triplet(contraction) == pytest.approx(0.0959, abs=1e-12)
        stability = cfg.equation_for("stability")
        assert check_dissipativity_triplet(stability, alpha=0.0) == 1.0
        assert parse_config(CONFIG_DIR / "acceptance.cfg").margin == cfg.margin

    def test_negative_covariance_names_the_key(self, tmp_path):
        bad = MINIMAL.replace("q = 1.0", "q = -1.0")
        with pytest.raises(ConfigurationError, match="q"):
            parse_config(write_cfg(tmp_path, bad))

    def test_negative_mark_weight_names_the_key(self, tmp_path):
        bad = MINIMAL.replace("z_weights = 0.0", "z_weights = -2.0")
        with pytest.raises(ConfigurationError, match="z_weights"):
            parse_config(write_cfg(tmp_path, bad))

    def test_unknown_experiment_rejected(self, tmp_path):
        bad = MINIMAL.replace("experiments =", "experiments = warp_drive")
        with pytest.raises(ConfigurationError, match="warp_drive"):
            parse_config(write_cfg(tmp_path, bad))

    def test_seed_is_mandatory(self, tmp_path):
        bad = MINIMAL.replace("seed = 7", "")
        with pytest.raises(ConfigurationError, match="seed"):
            parse_config(write_cfg(tmp_path, bad))

    def test_non_dyadic_dt_list_rejected(self, tmp_path):
        bad = MINIMAL.replace("experiments =", "experiments =\ndt_list = 0.1 0.03")
        with pytest.raises(ConfigurationError, match="dyadic"):
            parse_config(write_cfg(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_wrong_matrix_shape_names_the_key(self, tmp_path):
        bad = MINIMAL.replace("b_base = 0.1 ; 0.05 ; 0.02", "b_base = 0.1 ; 0.05")
        with pytest.raises(ConfigurationError, match="b_base"):
            parse_config(write_cfg(tmp_path, bad))

    def test_equation_override_section(self, tmp_path):
        text = MINIMAL + "\n[experiment.contraction]\nalpha = 0.4\nf_coeffs = 0 0.5\nu0_b = 0 0 0\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        spec = cfg.equation_for("contraction")
        assert spec.alpha == 0.4
        assert spec.F.coefficients == (0.0, 0.5)
        assert cfg.equation.alpha == 0.0

    def test_options_are_typed_with_defaults_and_fallbacks(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments =\ndt_list = 0.25 0.125 0.0625")
        text += "\n[experiment.coupling]\nscheme_a = resolvent_implicit\n"
        coupling = parse_config(write_cfg(tmp_path, text)).options["coupling"]
        assert coupling["dts"] == (0.25, 0.125, 0.0625)       # from [experiment] dt_list
        assert coupling["scheme_a"] == "resolvent_implicit"
        assert coupling["scheme_b"] == "resolvent_implicit"  # the table default
        assert coupling["u0"] == (0.5, 0.25, 0.1)            # the [equation] value

    def test_override_sections_share_the_equation_operator(self):
        cfg = parse_config(CONFIG_DIR / "cubic-rd.cfg")
        assert cfg.equation_for("contraction").A is cfg.equation.A


FUZZ_SOURCES = (CONFIG_DIR / "acceptance.cfg", CONFIG_DIR / "cubic-rd.cfg",
                BENCH_DIR / "fine-path.cfg")
# Small values only: n = 99 is the largest operator a mutation can ask for.
FUZZ_VALUES = ("0", "1", "2", "-1", "1.5", "99", "0.25", "0.0078125", "1e-9", "1e308", "nan",
               "inf", "-inf", "x", "", "zeros", "0.5 0.25", "0 0 0", "1 ; 2", "exp_euler", "foo")
FUZZ_KEYS = sorted({key.lower() for keys in OPTIONS.values() for key in keys} | {"bogus"})
FUZZ_SECTIONS = ("experiment.coupling", "experiment.cauchy", "experiment.nope", "foo")


def _sections(path):
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
    parser.read(path)
    return {name: dict(parser.items(name)) for name in parser.sections()}


FUZZ_BASE = {path: _sections(path) for path in FUZZ_SOURCES}


def _diagonal_spectra(n):
    """Spectra of length n that are all zero, repeated, descending, or all three."""
    return ([0.0] * n, [2.0] * n, [float(n - k) for k in range(n)],
            [float(k * 7 % 5) for k in range(n)])


def _mutate(sections, op, pick, value):
    """Apply one mutation, chosen by ``op`` and the index ``pick``, to ``sections``."""
    if op == "diagonal" and "equation" in sections:
        # a diagonal operator of the current n (3 if n is not a count)
        equation = sections["equation"]
        n = int(equation["n"]) if equation.get("n", "").isdigit() else 3
        spectra = _diagonal_spectra(min(n, 99))
        equation["operator"] = "diagonal"
        equation["eigenvalues"] = " ".join(map(str, spectra[pick % len(spectra)]))
        return
    names = sorted(sections)
    section = sections[names[pick % len(names)]]
    keys = sorted(section)
    key = keys[pick // len(names) % len(keys)] if keys else None
    if op == "set" and key:
        section[key] = value
    elif op == "rename" and key:
        section[key[:-1] or "x"] = section.pop(key)
    elif op == "delete" and key:
        del section[key]
    elif op == "add":
        section[FUZZ_KEYS[pick % len(FUZZ_KEYS)]] = value
    elif op == "section":
        sections.setdefault(FUZZ_SECTIONS[pick % len(FUZZ_SECTIONS)], {})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.sampled_from(FUZZ_SOURCES),
       mutations=st.lists(st.tuples(st.sampled_from(("set", "rename", "delete", "add", "section",
                                                     "diagonal")),
                                    st.integers(0, 10**6), st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=3))
def test_mutated_configs_parse_or_raise_configuration_error(tmp_path, source, mutations):
    sections = {name: dict(keys) for name, keys in FUZZ_BASE[source].items()}
    for op, pick, value in mutations:
        _mutate(sections, op, pick, value)
    _parse_or_refuse(sections, tmp_path / "mutated.cfg")


def _parse_or_refuse(sections, path):
    """Write ``sections`` to ``path``; it must parse or raise ConfigurationError."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    with path.open("w") as handle:
        parser.write(handle)
    try:
        assert isinstance(parse_config(path), RunConfig)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("source", FUZZ_SOURCES, ids=lambda path: path.stem)
@pytest.mark.parametrize("spectrum", range(4), ids=["zero", "repeated", "descending", "mixed"])
def test_diagonal_spectra_parse_or_raise_configuration_error(tmp_path, source, spectrum):
    # each shipped config with its operator made diagonal on each kind of spectrum
    sections = {name: dict(keys) for name, keys in FUZZ_BASE[source].items()}
    _mutate(sections, "diagonal", spectrum, "")
    _parse_or_refuse(sections, tmp_path / "diagonal.cfg")


def test_readme_key_table_matches_the_option_table():
    # every row of the README "Config format" table: | `[section]`, ... | `key` | type | default | check |
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    body = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in body.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 5 or not cells[0].startswith("`["):
            continue
        for section in cells[0].split(", "):
            documented[section.strip("`[]"), cells[1].strip("`")] = cells[3].strip("`")
    declared = {(section, key): "required" if default is None else default
                for section, keys in OPTIONS.items() for key, (_, default) in keys.items()}
    assert documented == declared


def test_readme_library_tour_names_only_exported_identifiers():
    # every identifier in backticks of a "Library tour" row is in its module's __all__
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    body = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = 0
    for line in body.splitlines():
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if len(cells) != 2 or not re.fullmatch(r"`\w+`", cells[0]):
            continue
        rows += 1
        exported = importlib.import_module(f"mildsde.{cells[0].strip('`')}").__all__
        for name in re.findall(r"`([A-Za-z_][\w.]*)`", cells[1]):
            assert name.partition(".")[0] in exported, (cells[0], name)
    assert rows == 7  # one per module: a row the split misreads would be skipped unchecked


def _table_default(section, key, **values):
    """The default of ``[section] key`` read by its own reader (``values``: keys it reads)."""
    parse, default = OPTIONS[section][key]
    return parse(default, values)


def _defaults(function):
    return {name: p.default for name, p in inspect.signature(function).parameters.items()
            if p.default is not inspect.Parameter.empty}


# The 17 parameters that neither a config key nor a test set, gone from these signatures.
RETIRED = (
    (analysis.contraction_experiment, ("u0_a", "scheme")),
    (analysis.stability_estimate_experiment, ("scheme", "noise_floor", "continuity_factor")),
    (analysis.generalized_solution_cauchy, ("scheme", "n_bound")),
    (analysis.wiener_isometry_experiment, ("rel_tol",)),
    (analysis.poisson_isometry_experiment, ("rel_tol",)),
    (analysis.yosida_coupling_bound, ("u0_a", "slack")),
    (analysis.regularization_identity_experiment, ("amplitude",)),
    (analysis.fit_order, ("floor",)),
    (analysis.coupling_uniqueness_experiment, ("epsilon",)),
    (solver.solve, ("epsilon",)),
    (space.SpectralOperator, ("validate",)),
    (model.Nonlinearity.linear, ("shift",)),
)


def test_library_defaults_match_the_option_table():
    # a default kept in a signature and in the option table must be one value
    weak = {"epsilon": _table_default("experiment.weak_residual", "epsilon"),
            "k_max": _table_default("experiment.weak_residual", "k_max", n=31)}
    assert _defaults(analysis.weak_solution_residual) == weak
    assert _defaults(analysis.weak_residual_experiment) == {
        **weak, "scheme": _table_default("experiment.weak_residual", "scheme")}
    for function, section in ((analysis.resolvent_algebra_check, "resolvent_algebra"),
                              (analysis.regularization_identity_experiment,
                               "regularization_identity")):
        assert _defaults(function) == {"tol": _table_default(f"experiment.{section}", "tol")}
    assert _defaults(analysis.energy_identity_experiment) == {
        key: _table_default("experiment.energy_identity", key)
        for key in ("g_amp", "c_amp", "d_amp")}
    assert _defaults(analysis.coupling_uniqueness_experiment) == {"scheme_pair": tuple(
        _table_default("experiment.coupling", key) for key in ("scheme_a", "scheme_b"))}
    # and no parameter that only a library caller could set is back
    assert sum(len(names) for _, names in RETIRED) == 17
    for function, names in RETIRED:
        assert not set(names) & set(inspect.signature(function).parameters), function
    everywhere = {name for _, names in RETIRED for name in names} - {"scheme", "epsilon"}
    for name in analysis.__all__:
        function = getattr(analysis, name)
        if callable(function):
            assert not everywhere & set(inspect.signature(function).parameters), name


def _bench_spans(monkeypatch):
    """bench/spans.py, the benchmark's tracer, loaded as it stands."""
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_DIR / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_targets_resolve(monkeypatch):
    # the tracer wraps these names from outside the package, so deleting or
    # renaming one breaks every traced benchmark run
    for target in _bench_spans(monkeypatch).TARGETS:
        module = importlib.import_module(target.module)
        assert hasattr(module, target.attr), f"{target.module}.{target.attr}"


@pytest.mark.parametrize("source", FUZZ_SOURCES, ids=lambda path: path.stem)
def test_benchmark_margin_key_reads_the_shipped_equation(monkeypatch, source):
    spec = parse_config(source).equation
    key = _bench_spans(monkeypatch)._margin_key((spec,), {})
    assert key[0] == spec.fingerprint()


def assert_recorded_digests(config_path, digests_name, output_dir):
    """Run a config at its seed into ``output_dir``; every artifact's SHA-256 must equal
    the list recorded in ``tests/<digests_name>`` (sha256sum format), and each report's
    ``# verdict:`` line must follow from its row verdicts and match the manifest."""
    recorded = dict(line.split()[::-1] for line in
                    (Path(__file__).parent / digests_name).read_text().splitlines())
    cfg = replace(parse_config(config_path), output_dir=output_dir)
    assert cfg.seed == 20260809
    assert run(cfg) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in output_dir.iterdir()}
    assert written == recorded
    manifest = dict(line.split(" = ", 1)
                    for line in (output_dir / "manifest.txt").read_text().splitlines()[1:])
    for path in output_dir.glob("*.report.txt"):
        lines = path.read_text().splitlines()
        verdict, = (line.removeprefix("# verdict: ") for line in lines
                    if line.startswith("# verdict: "))
        judged = {line.split("\t")[-1] for line in lines if not line.startswith("#")} - {"-"}
        rule = ("INCONCLUSIVE" if not judged or "INCONCLUSIVE" in judged
                else "FAIL" if "FAIL" in judged else "PASS")
        assert verdict == rule == manifest[f"verdict.{path.name.removesuffix('.report.txt')}"]


class TestRun:
    def test_empty_experiment_list_writes_manifest_only(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL))
        from dataclasses import replace
        cfg = replace(cfg, output_dir=tmp_path / "out")
        assert run(cfg) == 0
        files = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert files == ["manifest.txt"]
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "exit_status = 0" in manifest
        assert cfg.config_sha256 in manifest

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        cfg_path = write_cfg(tmp_path, text)
        from dataclasses import replace
        outs = []
        for sub in ("a", "b"):
            cfg = replace(parse_config(cfg_path), output_dir=tmp_path / sub)
            assert run(cfg) == 0
            outs.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
        assert outs[0] == outs[1]

    def test_failing_experiment_sets_exit_status(self, tmp_path):
        # a saturated regularization sweep cannot decay at slope one
        text = MINIMAL.replace("experiments =", "experiments = trotter_kato")
        text += ("\n[experiment.trotter_kato]\nlambda1 = 50.0\ndt = 0.00390625\nt = 0.25\n"
                 "epsilons = 0.5 0.25 0.125\n")
        cfg = parse_config(write_cfg(tmp_path, text))
        from dataclasses import replace
        cfg = replace(cfg, output_dir=tmp_path / "out")
        assert run(cfg) == 1
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "verdict.trotter_kato = FAIL" in manifest
        assert "exit_status = 1" in manifest

    def test_inconclusive_exits_zero_with_warning(self, tmp_path, capsys):
        # explosive drift makes the coupling runs blow up
        text = MINIMAL.replace("f_coeffs = 0 1", "f_coeffs = 0 0 0 -40")
        text = text.replace("u0 = 0.5 0.25 0.1", "u0 = 3.0 -3.0 3.0")
        text = text.replace("experiments =", "experiments = coupling")
        text += "\n[experiment.coupling]\ndts = 0.25 0.125 0.0625\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        from dataclasses import replace
        cfg = replace(cfg, output_dir=tmp_path / "out")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(cfg) == 0
        assert "inconclusive" in capsys.readouterr().err.lower()

    def test_shipped_cubic_config_reproduces_itself(self, tmp_path):
        # the flagship benchmark config, run twice, byte-compared
        cfg_path = CONFIG_DIR / "cubic-rd.cfg"
        from dataclasses import replace
        outs = []
        for sub in ("first", "second"):
            cfg = replace(parse_config(cfg_path), output_dir=tmp_path / sub)
            assert run(cfg) == 0
            outs.append({p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()})
        assert outs[0].keys() == outs[1].keys()
        assert outs[0] == outs[1]

    def test_shipped_cubic_artifacts_match_the_recorded_digests(self, tmp_path):
        # tests/cubic-rd.sha256 pins every artifact of the shipped config at its
        # seed; a change that moves these bytes on purpose updates the list
        assert_recorded_digests(CONFIG_DIR / "cubic-rd.cfg", "cubic-rd.sha256", tmp_path)

    def test_shipped_cubic_run_traced_peak_memory(self, tmp_path):
        # the coupled experiments keep per-node moments, not (pairs, members,
        # nodes) gap arrays, and step_ensemble steps its states in place: the shipped
        # cubic-rd run holds at most 8.5 MiB of traced memory at once (7.05 MiB measured)
        cfg = replace(parse_config(CONFIG_DIR / "cubic-rd.cfg"), output_dir=tmp_path)
        tracemalloc.start()
        try:
            assert run(cfg) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8.5 * 2**20

    def test_shipped_acceptance_artifacts_match_the_recorded_digests(self, tmp_path):
        # tests/acceptance.sha256 pins all 27 artifacts of the shipped acceptance
        # config at its seed, every experiment included
        assert_recorded_digests(CONFIG_DIR / "acceptance.cfg", "acceptance.sha256", tmp_path)

    def test_fine_path_artifacts_match_the_recorded_digests(self, tmp_path):
        # the benchmark's single-path workload (dt down to 2^-14) pins the
        # scalar steppers' bytes; the config is only read, output goes to tmp_path
        assert_recorded_digests(BENCH_DIR / "fine-path.cfg", "fine-path.sha256", tmp_path)

    def test_fine_path_steps_and_bins_each_path_once(self, tmp_path, monkeypatch):
        # coupling steps its scheme pair in one loop per dt (256 + ... + 4,096 =
        # 7,936 steps) and bins each dt's path once, trotter_kato steps 4,096
        # steps once on one path binned once, the reference and its six eps as
        # the groups of one call, and weak_residual reuses coupling's
        # reductions: no step loop, no binning
        steps, binnings, current = {}, [], [None]
        originals = {"step_ensemble": solver.step_ensemble,
                     "jump_cell_counts": noise.jump_cell_counts}

        def step_ensemble(dW, counts, groups, reduce=None):
            steps[current[0]] = steps.get(current[0], 0) + dW.shape[1]
            return originals["step_ensemble"](dW, counts, groups, reduce)

        def jump_cell_counts(path, grid):
            binnings.append(current[0])
            return originals["jump_cell_counts"](path, grid)

        wrappers = {"step_ensemble": step_ensemble, "jump_cell_counts": jump_cell_counts}
        for module in (noise, solver, analysis):
            for name, value in list(vars(module).items()):
                for key, original in originals.items():
                    if value is original:
                        monkeypatch.setattr(module, name, wrappers[key])

        def entered(name, builder):
            def build(config):
                current[0] = name
                return builder(config)
            return build

        for name, builder in list(cli.EXPERIMENTS.items()):
            monkeypatch.setitem(cli.EXPERIMENTS, name, entered(name, builder))
        cfg = replace(parse_config(BENCH_DIR / "fine-path.cfg"), output_dir=tmp_path)
        assert run(cfg) == 0
        assert sum(steps.values()) == 12_032
        assert steps.get("weak_residual", 0) == 0
        assert steps == {"coupling": 7_936, "trotter_kato": 4_096}
        assert binnings == ["coupling"] * 5 + ["trotter_kato"]

    @staticmethod
    def counted_member_steps(monkeypatch):
        """A list that gets members x steps x groups of every step_ensemble call."""
        counted, stepper = [], solver.step_ensemble

        def step_ensemble(dW, counts, groups, reduce=None):
            counted.append(dW.shape[0] * dW.shape[1] * len(groups))
            return stepper(dW, counts, groups, reduce)

        for module in (solver, analysis):
            monkeypatch.setattr(module, "step_ensemble", step_ensemble)
        return counted

    def test_stability_and_cauchy_share_one_coupled_solve(self, tmp_path, monkeypatch):
        # on cubic-rd's equal sections the chain [spec, moved(0), ..., moved(4)] is
        # stepped once, 6 groups x 1000 members x 128 steps in place of 2 + 5
        # groups, and each experiment writes the bytes of a run of it alone
        counted = self.counted_member_steps(monkeypatch)
        written, steps = {}, {}
        for only in (("stability", "cauchy"), ("stability",), ("cauchy",)):
            out = tmp_path / "-".join(only)
            counted.clear()
            assert run(replace(parse_config(CONFIG_DIR / "cubic-rd.cfg", only=only),
                               output_dir=out)) == 0
            steps[only] = sum(counted)
            written[only] = {p.name: p.read_bytes() for p in out.iterdir()
                             if p.name.startswith(only)}
        assert steps == {("stability", "cauchy"): 768_000, ("stability",): 256_000,
                         ("cauchy",): 640_000}
        assert written[("stability", "cauchy")] == {**written[("stability",)],
                                                    **written[("cauchy",)]}
        assert any(name.startswith("stability") for name in written[("stability",)])
        assert any(name.startswith("cauchy") for name in written[("cauchy",)])

    def test_sections_that_differ_step_their_own_chains(self, tmp_path, monkeypatch):
        # cauchy at half stability's dt: 2 groups x 128 steps, then 5 groups x 256
        counted = self.counted_member_steps(monkeypatch)
        text = set_key((CONFIG_DIR / "cubic-rd.cfg").read_text(), "experiment.cauchy", "dt",
                       "0.00390625")
        text = set_key(text, "experiment", "ensemble_coupled", "100")
        cfg = parse_config(write_cfg(tmp_path, text), only=("stability", "cauchy"))
        assert run(replace(cfg, output_dir=tmp_path / "out")) == 0
        assert counted == [2 * 100 * 128, 5 * 100 * 256]

    def test_weak_residual_alone_writes_the_bytes_of_the_full_run(self, tmp_path):
        # without coupling before it, weak_residual solves its own path (the
        # handover misses) and must still write the recorded bytes
        recorded = dict(line.split()[::-1] for line in
                        (Path(__file__).parent / "fine-path.sha256").read_text().splitlines())
        cfg = replace(parse_config(BENCH_DIR / "fine-path.cfg", only=("weak_residual",)),
                      output_dir=tmp_path)
        assert run(cfg) == 0
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in tmp_path.iterdir() if p.name.startswith("weak_residual")}
        assert written and written == {name: digest for name, digest in recorded.items()
                                       if name.startswith("weak_residual")}

    def test_an_ensemble_drawn_first_leaves_the_single_path_bytes(self, tmp_path, draw_counts):
        # contraction draws 3 members on coupling's finest grid at the run seed;
        # coupling and weak_residual are then served member 0 from the run memo
        # and must write the recorded bytes of a run without the ensemble
        recorded = dict(line.split()[::-1] for line in
                        (Path(__file__).parent / "fine-path.sha256").read_text().splitlines())
        text = (BENCH_DIR / "fine-path.cfg").read_text() + (
            "\n[experiment.contraction]\nf_coeffs = 0 1\nensemble = 3\n"
            "dt = 0.00006103515625\nu0_b = zeros\n")
        cfg = replace(parse_config(write_cfg(tmp_path, text)), output_dir=tmp_path / "out",
                      experiments=("contraction", "coupling", "weak_residual"))
        assert run(cfg) == 0
        assert draw_counts == {"wiener": 3, "poisson": 3}
        single = ("coupling", "weak_residual")
        written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "out").iterdir() if p.name.startswith(single)}
        assert written and written == {name: digest for name, digest in recorded.items()
                                       if name.startswith(single)}

    def test_coupled_experiments_draw_one_batch(self, tmp_path, draw_counts):
        text = set_key((CONFIG_DIR / "cubic-rd.cfg").read_text(), "experiment",
                       "ensemble_coupled", "40")
        cfg = replace(parse_config(write_cfg(tmp_path, text)), output_dir=tmp_path / "out",
                      experiments=("contraction", "stability", "cauchy"))
        run(cfg)
        assert draw_counts == {"wiener": 40, "poisson": 40}
        assert noise._drawn is None

    def test_compensator_reuses_the_isometry_jump_paths(self, tmp_path, draw_counts):
        text = (CONFIG_DIR / "acceptance.cfg").read_text()
        for name in ("poisson_isometry", "compensator"):
            text = set_key(text, f"experiment.{name}", "paths", "300")
        cfg = replace(parse_config(write_cfg(tmp_path, text)), output_dir=tmp_path / "out",
                      experiments=("poisson_isometry", "compensator"))
        run(cfg)
        assert draw_counts == {"wiener": 0, "poisson": 300}


@pytest.mark.parametrize("name, target, pick", [
    ("wiener_isometry", "step_q_integral", lambda args: args[0] / 0.5),   # amplitude 0.5
    ("regularization_identity", "regularized_coupling_identity", lambda args: args[1]),
    ("energy_identity", "ito_energy_residual", lambda args: args[1]),      # g_amp 1.0
])
def test_member_zero_increments_are_not_the_data_normals(tmp_path, monkeypatch, name, target,
                                                         pick):
    # member 0 draws its Wiener path from default_rng(seed); the data draw elsewhere
    seen, real = [], getattr(analysis, target)

    def spy(*args, **kwargs):
        seen.append(pick(args))
        return real(*args, **kwargs)
    monkeypatch.setattr(analysis, target, spy)
    cfg = parse_config(write_cfg(tmp_path, MINIMAL.replace("experiments =",
                                                           f"experiments = {name}")))
    assert cli.EXPERIMENTS[name](cfg).verdict == "PASS"
    data = np.concatenate([x.ravel() for x in seen])
    # q = 1 and dt = 1 make member 0's increments its normals, exactly
    member0 = noise.sample_wiener_rows(np.ones(1), noise.TimeGrid(4096.0, 4096), cfg.seed, 1)
    assert data.size > 40 and not np.isin(data, member0).any()


class TestEmitPlotData:
    def make_coupling_report(self, spec):
        from mildsde.analysis import coupling_uniqueness_experiment
        return coupling_uniqueness_experiment(spec, 3, [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8])

    def test_coupling_curve_rows_and_slope(self, tmp_path):
        spec = make_cubic_spec(n=7)
        report = self.make_coupling_report(spec)
        paths = write_plot_data(report, tmp_path)
        data = np.loadtxt([p for p in paths if "gap_vs_dt" in p.name][0])
        assert data.shape[0] == 4
        assert np.all(np.diff(data[:, 0]) > 0)  # monotone first column
        # independent least-squares oracle on the emitted points
        slope = np.polyfit(data[:, 0], data[:, 1], 1)[0]
        assert slope == pytest.approx(report.summary["fitted_order"], abs=1e-9)

    def test_contraction_curve_starts_at_initial_gap(self, tmp_path):
        from mildsde.analysis import contraction_experiment
        spec = make_cubic_spec(n=7, T=0.5, f_coeffs=(0.0, 0.5, 0.0, 1.0), eta=0.0,
                               alpha=0.8)
        u0_b = spec.u0 + 0.2 * spec.A.eigenvectors[:, 1]
        report = contraction_experiment(spec, u0_b, 30, 3, dt=2.0**-6)
        paths = write_plot_data(report, tmp_path)
        data = np.loadtxt([p for p in paths if "log_gap_vs_t" in p.name][0])
        expected = np.log(spec.space.sq_norms(spec.u0 - u0_b))
        assert data[0, 1] == expected


class TestMainEntry:
    def test_cli_round_trip(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as status:
            main([str(cfg_path), "--output-dir", str(out), "-v"])
        assert status.value.code == 0
        assert (out / "resolvent_algebra.report.txt").exists()

    def test_only_filter(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as status:
            main([str(cfg_path), "--output-dir", str(out), "--only", "resolvent_algebra"])
        assert status.value.code == 0
        with pytest.raises(SystemExit) as status:
            main([str(cfg_path), "--only", "nope"])
        assert status.value.code == 2

    def test_seed_override_records_the_config_seed_margin(self, tmp_path):
        # the margin is a function of the equation alone, so --seed 7 and a
        # config that says seed = 7 write the same manifest margin
        text = (CONFIG_DIR / "cubic-rd.cfg").read_text()
        margins = []
        for sub, cfg_text, extra in (("flag", text, ["--seed", "7"]),
                                     ("file", text.replace("seed = 20260809", "seed = 7"), [])):
            out = tmp_path / sub
            with pytest.raises(SystemExit) as status:
                main([str(write_cfg(tmp_path, cfg_text, f"{sub}.cfg")), "--only", "",
                      "--output-dir", str(out)] + extra)
            assert status.value.code == 0
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert "seed = 7" in manifest
            margins.append([line for line in manifest if line.startswith("dissipativity_margin")])
        assert margins[0] == margins[1] == ["dissipativity_margin = -2.0040999999999998"]

    def test_unmet_hypothesis_exits_2(self, tmp_path, capsys):
        # alpha = 5 leaves the exact margin 1 - 0.0041 - 5 < 0
        text = (CONFIG_DIR / "cubic-rd.cfg").read_text()
        text = text.replace("alpha = 0.9", "alpha = 5")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "contraction",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "dissipativity hypothesis unmet" in err and "Traceback" not in err

    def test_abort_removes_the_artifacts_already_written(self, tmp_path, capsys, monkeypatch):
        # coupling writes its report and curve, then contraction refuses its
        # declared alpha = 100: the run exits 2 and leaves no artifact behind
        written = []

        def recording(write):
            def wrapper(*args):
                result = write(*args)
                written.extend(result if isinstance(result, list) else [result])
                return result
            return wrapper

        monkeypatch.setattr(cli, "write_report", recording(cli.write_report))
        monkeypatch.setattr(cli, "write_plot_data", recording(cli.write_plot_data))
        text = set_key((CONFIG_DIR / "cubic-rd.cfg").read_text(), "experiment.contraction",
                       "alpha", "100")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "coupling,contraction",
                  "--output-dir", str(out)])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("hypothesis error: dissipativity hypothesis unmet")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert [path.name for path in written] == ["coupling.report.txt",
                                                    "coupling.gap_vs_dt.dat"]
        assert list(out.iterdir()) == []

    def test_bad_option_type_exits_2(self, tmp_path, capsys):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        text += "\n[experiment.resolvent_algebra]\ntrials = 1.5\n"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment.resolvent_algebra] trials" in err and "Traceback" not in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as status:
            main([str(tmp_path / "missing.cfg")])
        assert status.value.code == 2
        capsys.readouterr()
        # text configparser cannot read, a repeated [equation] section (the message
        # names the file, not '<string>'), and a config without an [equation] section
        for text, message in (("n = 3\n", "cannot parse"),
                              ("[equation]\nn 3\n", "cannot parse"),
                              (MINIMAL + "\n[equation]\nn = 3\n", "'{path}' [line"),
                              ("[experiment]" + MINIMAL.split("[experiment]", 1)[1],
                               "missing [equation] section")):
            path = write_cfg(tmp_path, text)
            with pytest.raises(SystemExit) as status:
                main([str(path), "--output-dir", str(tmp_path / "out")])
            assert status.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: ")
            assert message.format(path=path) in err and "<string>" not in err
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not (tmp_path / "out").exists()

    def test_step_that_does_not_divide_the_horizon_exits_2(self, tmp_path, capsys):
        for name in ("stability", "cauchy"):
            text = MINIMAL.replace("experiments =", f"experiments = {name}")
            text += f"\n[experiment.{name}]\ndt = 0.3\nensemble = 4\n"
            cfg_path = write_cfg(tmp_path, text)
            with pytest.raises(SystemExit) as status:
                main([str(cfg_path), "--output-dir", str(tmp_path / "out")])
            assert status.value.code == 2
            err = capsys.readouterr().err
            assert "does not divide" in err and "Traceback" not in err

    def test_blow_up_is_inconclusive_and_keeps_earlier_reports(self, tmp_path, capsys):
        self._check_blow_up(tmp_path, capsys, "stability")

    def test_contraction_blow_up_is_inconclusive_and_keeps_earlier_reports(
            self, tmp_path, capsys):
        self._check_blow_up(tmp_path, capsys, "contraction")

    @staticmethod
    def _check_blow_up(tmp_path, capsys, name):
        # dt * f'(u) = 0.0078125 * 3000 u^2 drives the coupled ensemble to overflow
        text = (CONFIG_DIR / "cubic-rd.cfg").read_text()
        head, sep, tail = text.partition(f"[experiment.{name}]")
        tail = tail.replace("f_coeffs = 0 0.5 0 1", "f_coeffs = 0 0.5 0 1000", 1)
        out = tmp_path / "out"
        with pytest.warns(Warning) as recorded, pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, head + sep + tail)), "--only", f"coupling,{name}",
                  "--output-dir", str(out)])
        assert status.value.code == 0
        assert not [w for w in recorded if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert f"warning: {name}:" in err and "non-finite" in err and "Traceback" not in err
        assert (out / "coupling.report.txt").exists()
        report = (out / f"{name}.report.txt").read_text()
        assert "# verdict: INCONCLUSIVE" in report
        assert f"{name}\tblow_up\tstep=7\t" in report
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "verdict.coupling = PASS" in manifest
        assert f"verdict.{name} = INCONCLUSIVE" in manifest

    @pytest.mark.parametrize("section, key", [
        pytest.param("experiment.stability", "ensemble", id="stability"),
        pytest.param("experiment.cauchy", "ensemble", id="cauchy"),
        pytest.param("experiment.contraction", "ensemble", id="contraction"),
        pytest.param("experiment.wiener_isometry", "paths", id="wiener_isometry"),
        pytest.param("experiment.poisson_isometry", "paths", id="poisson_isometry"),
        pytest.param("experiment.compensator", "paths", id="compensator"),
        pytest.param("experiment.regularization_identity", "instances",
                     id="regularization_identity"),
        pytest.param("experiment", "ensemble_paths", id="ensemble_paths"),
        pytest.param("experiment", "ensemble_coupled", id="ensemble_coupled"),
    ])
    def test_empty_ensemble_exits_2(self, tmp_path, capsys, section, key):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), section, key, "0")
        name = section.partition(".")[2] or "resolvent_algebra"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", name,
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key} must be >= 1, got 0" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, only", [
        ("experiment", "dt_list", "0 0", "coupling"),
        ("experiment.coupling", "dts", "0 0 0", "coupling"),
        ("experiment.contraction", "dt", "0", "contraction"),
        ("experiment.contraction", "dt", "-0.0078125", "contraction"),
        ("experiment.contraction", "dt", "nan", "contraction"),
        ("experiment.stability", "dt", "inf", "stability"),
        ("experiment.weak_residual", "dts", "0.0625 -inf", "weak_residual"),
    ])
    def test_nonpositive_or_nonfinite_step_exits_2(self, tmp_path, capsys, section, key,
                                                   value, only):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), section, key, value)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", only,
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}: step sizes must be finite and > 0" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, only", [
        ("experiment.weak_residual", "epsilon", "0", "trotter_kato,weak_residual"),
        ("experiment.trotter_kato", "epsilons", "0.5 0.25 0", "resolvent_algebra"),
        ("experiment", "epsilons", "0.5 inf", "resolvent_algebra"),
        ("experiment.regularization_identity", "epsilon", "nan", "regularization_identity"),
    ])
    def test_nonpositive_or_nonfinite_regularization_exits_2(self, tmp_path, capsys, section,
                                                             key, value, only):
        # refused at parse time, also where the experiment reading the key does not run
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), section, key, value)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", only,
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}: regularization parameters must be finite and > 0" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_epsilon_list_exits_2(self, tmp_path, capsys):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), "experiment.weak_residual",
                       "epsilon", "0.1 0.05")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "weak_residual",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment.weak_residual] epsilon: expected one number" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_zero_eigenvalue_of_the_trotter_kato_mode_exits_2(self, tmp_path, capsys):
        # trotter_kato rescales the spectrum by the eigenvalue of the mode it drives
        text = MINIMAL.replace("eigenvalues = 0.5 1.0 2.0", "eigenvalues = 0 1.0 2.0")
        path = write_cfg(tmp_path, text)
        with pytest.raises(SystemExit) as status:
            main([str(path), "--only", "resolvent_algebra,trotter_kato",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [equation] eigenvalues: trotter_kato")
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()
        assert parse_config(path, only=("resolvent_algebra",)).equation.A.eigenvalues[0] == 0.0

    def test_step_list_as_dt_exits_2(self, tmp_path, capsys):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), "experiment.contraction",
                       "dt", "0.0078125 0.00390625")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "contraction",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment.contraction] dt: expected one number" in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_misspelt_experiment_section_exits_2(self, tmp_path, capsys):
        text = (CONFIG_DIR / "acceptance.cfg").read_text()
        text += "\n[experiment.weak_residul]\nepsilon = 0.5\n"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "weak_residual",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment.weak_residul]: unknown experiment section" in err
        assert "'weak_residual'" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("equation", "f_coefs", "0 -1 0 1"),                 # misspelt: unknown key
        ("experiment.cauchy", "levls", "5"),
        ("output", "format", "report"),
        ("experiment.weak_residual", "epsilons", "-0.1"),    # a key of another section
        ("experiment.contraction", "u0_b", "1 2"),           # not n values
        ("experiment.stability", "u0", "1 2"),
        ("experiment.energy_identity", "n", "0"),
        ("experiment.wiener_isometry", "steps", "0"),
        ("experiment.resolvent_algebra", "trials", "0"),
        ("experiment.weak_residual", "k_max", "99"),         # more modes than n = 31
        ("experiment.contraction", "dt", "0.0234375"),       # does not divide T = 1
        ("experiment.coupling", "scheme_a", "foo"),
        ("experiment.cauchy", "levels", "1"),
    ])
    @pytest.mark.parametrize("only", [["--only", "coupling"], []], ids=["only-coupling", "all"])
    def test_bad_key_exits_2_before_any_experiment_runs(self, tmp_path, capsys, section, key,
                                                        value, only):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), section, key, value)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), *only, "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("listed, only, message", [
        ("resolvent_algebra resolvent_algebra", [],
         "[experiment] experiments: repeated experiments ['resolvent_algebra']"),
        ("", ["--only", "coupling,coupling"], "--only: repeated experiments ['coupling']"),
    ], ids=["experiments", "only"])
    def test_repeated_experiment_name_exits_2(self, tmp_path, capsys, listed, only, message):
        text = MINIMAL.replace("experiments =", f"experiments = {listed}")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), *only, "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, only, inherited", [
        ("stability", "resolvent_algebra,stability", False),
        ("cauchy", "cauchy", True),
    ])
    def test_state_dependent_b_scale_exits_2(self, tmp_path, capsys, name, only, inherited):
        # cubic-rd's [equation] b_scale is 0.05 0.0; its stability and cauchy
        # sections set zeros, so either set 0.05 there or drop the line to inherit it
        text = (CONFIG_DIR / "cubic-rd.cfg").read_text()
        head, sep, tail = text.partition(f"[experiment.{name}]\n")
        tail = tail.replace("b_scale = 0.0 0.0\n", "" if inherited else "b_scale = 0.05 0.0\n", 1)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, head + sep + tail)), "--only", only,
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        key = f"[experiment.{name}] b_scale" + (" (from [equation] b_scale)" if inherited else "")
        assert f"{key} must be zeros" in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_required_key_of_a_selected_experiment_exits_2(self, tmp_path, capsys):
        # MINIMAL has no [experiment.contraction] section, so u0_b is missing
        # only once --only selects contraction
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, MINIMAL)), "--only", "contraction",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        assert "[experiment.contraction] u0_b is required" in capsys.readouterr().err

    def test_inherited_step_list_names_both_keys(self, tmp_path, capsys):
        # dt_list is dyadic on its own but 0.1 does not divide T = 0.25
        text = set_key((CONFIG_DIR / "cubic-rd.cfg").read_text(), "experiment", "dt_list",
                       "0.1 0.05 0.025")
        text = text.replace("dts = 0.0078125 0.00390625 0.001953125 0.0009765625\n"
                            "scheme_a", "scheme_a")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert ("[experiment.coupling] dts (from [experiment] dt_list): dt=0.1 does not divide"
                in err)

    @pytest.mark.parametrize("source, settings, stable, label, bound", [
        ("acceptance.cfg", [("experiment.trotter_kato", "dt", "0.0625")], "0.03125",
         "[experiment.trotter_kato] dt", "dt*lam_max/(1+eps*lam_max) = 3.06 >= 2"),
        ("acceptance.cfg", [("experiment.energy_identity", "dts", "0.03125 0.015625 0.0078125")],
         "0.0078125 0.00390625 0.001953125", "[experiment.energy_identity] dts",
         "dt*lam_max = 4.2 >= 2"),
        (MINIMAL, [("experiment", "experiments", "energy_identity"),
                   ("experiment", "dt_list", "0.03125 0.015625 0.0078125")],
         "0.0078125 0.00390625 0.001953125",
         "[experiment.energy_identity] dts (from [experiment] dt_list)", "dt*lam_max = 4.2 >= 2"),
    ], ids=["trotter_kato", "energy_identity", "energy_identity-inherited"])
    def test_unstable_explicit_step_exits_2_before_any_experiment_runs(
            self, tmp_path, capsys, source, settings, stable, label, bound):
        # trotter_kato steps A_eps at its smallest eps, energy_identity the
        # Laplacian at its largest dt, both by explicit Euler
        text = source if source == MINIMAL else (CONFIG_DIR / source).read_text()
        for section, key, value in settings:
            text = set_key(text, section, key, value)
        section, key, _ = settings[-1]
        parse_config(write_cfg(tmp_path, set_key(text, section, key, stable), "stable.cfg"))
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {label}: explicit Euler unstable: {bound}")
        assert ("eps=" in err) == ("trotter_kato" in label)
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source, section, label", [
        ("acceptance.cfg", "experiment.trotter_kato", "[experiment.trotter_kato] epsilons"),
        (MINIMAL, "experiment",
         "[experiment.trotter_kato] epsilons (from [experiment] epsilons)"),
    ], ids=["set", "inherited"])
    def test_empty_epsilons_exit_2(self, tmp_path, capsys, source, section, label):
        # the sweep needs an eps to step, and its smallest to check the step against
        text = source if source == MINIMAL else (CONFIG_DIR / source).read_text()
        text = set_key(set_key(text, "experiment", "experiments", "trotter_kato"),
                       section, "epsilons", "")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert err == f"configuration error: {label} must list at least 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value, at_bound, message", [
        ("experiment.contraction", "dt", "1e-12", "9.5367431640625e-07",
         "dt=1e-12 takes 1e+12 steps over the horizon T=1.0, more than MAX_STEPS = 1048576"),
        ("experiment.wiener_isometry", "steps", "1048577", "1048576",
         "must be <= 1048576, got 1048577"),
    ], ids=["contraction-dt", "isometry-steps"])
    def test_more_steps_than_the_bound_exits_2(self, tmp_path, capsys, section, key, value,
                                               at_bound, message):
        # 2**20 steps per horizon parse; one step more is refused before any run
        acceptance = (CONFIG_DIR / "acceptance.cfg").read_text()
        assert analysis.MAX_STEPS == 2**20
        parse_config(write_cfg(tmp_path, set_key(acceptance, section, key, at_bound), "at.cfg"))
        text = set_key(acceptance, section, key, value)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err and message in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "seed", "abc"),
        ("experiment", "ensemble_coupled", "1.5"),
        ("experiment", "ensemble_paths", "many"),
        ("equation", "n", "31.0"),
        ("equation", "T", "one"),
        ("equation", "eta", "1,0"),
        ("equation", "alpha", "-"),
        ("experiment.contraction", "T", "1 s"),
        ("experiment.contraction", "dt", "fast"),
        ("experiment", "dt_list", "0.25 x"),
    ])
    def test_bad_number_exits_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        text = set_key((CONFIG_DIR / "cubic-rd.cfg").read_text(), section, key, value)
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "contraction",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}: expected" in err and repr(value) in err
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("config_seed, flag", [
        ("-1", None), (str(2**64), None), ("20260809", "-1"), ("20260809", str(2**64)),
    ])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, config_seed, flag):
        text = set_key((CONFIG_DIR / "acceptance.cfg").read_text(), "experiment", "seed",
                       config_seed)
        extra = [] if flag is None else ["--seed", flag]
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--only", "wiener_isometry",
                  "--output-dir", str(tmp_path / "out"), *extra])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment] seed must be in [0, 2**64)" in err
        assert ("--seed: " in err) == (flag is not None)
        assert "Traceback" not in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_largest_seed_runs(self, tmp_path):
        # its jump members draw from seeds up to 2**64 + 2**31 + paths
        text = (CONFIG_DIR / "acceptance.cfg").read_text()
        for name in ("wiener_isometry", "poisson_isometry"):
            text = set_key(text, f"experiment.{name}", "paths", "500")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--seed", str(2**64 - 1),
                  "--only", "wiener_isometry,poisson_isometry",
                  "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 0
        assert "seed = 18446744073709551615" in (tmp_path / "out" / "manifest.txt").read_text()

    def test_energy_identity_with_zero_data_writes_no_infinite_rows(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = energy_identity")
        text += "\n[experiment.energy_identity]\ng_amp = 0\nc_amp = 0\nd_amp = 0\n"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 0
        out = tmp_path / "out"
        assert "# verdict: PASS" in (out / "energy_identity.report.txt").read_text()
        assert not (out / "energy_identity.residual_vs_dt.dat").exists()

    def test_unwritable_output_dir_exits_2(self, tmp_path, capsys):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(blocker / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "i/o failure" in err and "Traceback" not in err
        assert err.count("\n") == 1

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as status:
            main([str(tmp_path)])
        assert status.value.code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_console_script_help(self):
        # the child imports mildsde from this checkout's src, installed or not
        src = str(CONFIG_DIR.parent / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run([sys.executable, "-m", "mildsde.cli", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "config" in proc.stdout


class TestTextIO:
    def test_atomic_write_replaces_not_appends(self, tmp_path):
        target = tmp_path / "deep" / "file.txt"
        atomic_write_text("first\n", target)
        atomic_write_text("second\n", target)
        assert target.read_text() == "second\n"
        assert not list(target.parent.glob("*.tmp"))


class TestOutputFormatSelection:
    def test_report_only_format_writes_no_plot_data(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = trotter_kato")
        text = text.replace("[output]\ndirectory = out", "[output]\ndirectory = out\nformats = report")
        cfg_path = write_cfg(tmp_path, text)
        from dataclasses import replace
        cfg = replace(parse_config(cfg_path), output_dir=tmp_path / "out")
        assert cfg.formats == ("report",)
        run(cfg)
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert "trotter_kato.report.txt" in names
        assert not any(name.endswith(".dat") for name in names)

    def test_unknown_format_rejected(self, tmp_path):
        text = MINIMAL.replace("[output]\ndirectory = out",
                               "[output]\ndirectory = out\nformats = pictures")
        with pytest.raises(ConfigurationError, match="pictures"):
            parse_config(write_cfg(tmp_path, text))

    def test_seed_override_changes_values_not_structure(self, tmp_path):
        text = MINIMAL.replace("experiments =", "experiments = trotter_kato")
        cfg_path = write_cfg(tmp_path, text)
        from dataclasses import replace
        outs = []
        for sub, seed in (("a", 7), ("b", 8)):
            cfg = replace(parse_config(cfg_path), output_dir=tmp_path / sub, seed=seed)
            run(cfg)
            outs.append((tmp_path / sub / "trotter_kato.report.txt").read_bytes())
        assert outs[0] != outs[1]
