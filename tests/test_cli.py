import configparser
import hashlib
import importlib
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mildsde import noise
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


def _mutate(sections, op, pick, value):
    """Apply one mutation, chosen by ``op`` and the index ``pick``, to ``sections``."""
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
       mutations=st.lists(st.tuples(st.sampled_from(("set", "rename", "delete", "add", "section")),
                                    st.integers(0, 10**6), st.sampled_from(FUZZ_VALUES)),
                          min_size=1, max_size=3))
def test_mutated_configs_parse_or_raise_configuration_error(tmp_path, source, mutations):
    sections = {name: dict(keys) for name, keys in FUZZ_BASE[source].items()}
    for op, pick, value in mutations:
        _mutate(sections, op, pick, value)
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_dict(sections)
    path = tmp_path / "mutated.cfg"
    with path.open("w") as handle:
        parser.write(handle)
    try:
        assert isinstance(parse_config(path), RunConfig)
    except ConfigurationError:
        pass


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


def assert_recorded_digests(config_path, digests_name, output_dir):
    """Run a config at its seed into ``output_dir``; every artifact's SHA-256 must equal
    the list recorded in ``tests/<digests_name>`` (sha256sum format)."""
    recorded = dict(line.split()[::-1] for line in
                    (Path(__file__).parent / digests_name).read_text().splitlines())
    cfg = replace(parse_config(config_path), output_dir=output_dir)
    assert cfg.seed == 20260809
    assert run(cfg) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in output_dir.iterdir()}
    assert written == recorded


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

    def test_shipped_acceptance_artifacts_match_the_recorded_digests(self, tmp_path):
        # tests/acceptance.sha256 pins all 27 artifacts of the shipped acceptance
        # config at its seed, every experiment included
        assert_recorded_digests(CONFIG_DIR / "acceptance.cfg", "acceptance.sha256", tmp_path)

    def test_fine_path_artifacts_match_the_recorded_digests(self, tmp_path):
        # the benchmark's single-path workload (dt down to 2^-14) pins the
        # scalar steppers' bytes; the config is only read, output goes to tmp_path
        assert_recorded_digests(BENCH_DIR / "fine-path.cfg", "fine-path.sha256", tmp_path)

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
        report = contraction_experiment(spec, spec.u0, u0_b, 30, 3, dt=2.0**-6)
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

    def test_bad_option_type_exits_2(self, tmp_path, capsys):
        text = MINIMAL.replace("experiments =", "experiments = resolvent_algebra")
        text += "\n[experiment.resolvent_algebra]\ntrials = 1.5\n"
        with pytest.raises(SystemExit) as status:
            main([str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")])
        assert status.value.code == 2
        err = capsys.readouterr().err
        assert "[experiment.resolvent_algebra] trials" in err and "Traceback" not in err

    def test_config_error_exit_code(self, tmp_path):
        with pytest.raises(SystemExit) as status:
            main([str(tmp_path / "missing.cfg")])
        assert status.value.code == 2

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
        proc = subprocess.run([sys.executable, "-m", "mildsde.cli", "--help"],
                              capture_output=True, text=True)
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
