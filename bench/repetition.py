"""One benchmark repetition: parse a config, run it, describe what it wrote.

Run as a script, it is the child process ``run.py`` starts for every
repetition, so that each repetition has its own peak resident memory; the
last line of its standard output is a JSON object.  ``repetition`` is also
importable, which the harness self-test uses.

    python3 bench/repetition.py CONFIG [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# parse_config takes about 0.1 s, so one repetition times it several times
# to give setup_s enough samples in a run.
PARSES_PER_REPETITION = 8


def import_package():
    """Import mildsde from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "mildsde" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mildsde package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mildsde
    if Path(mildsde.__file__).resolve().parent != SRC / "mildsde":
        raise ImportError(f"mildsde was imported from {mildsde.__file__}, not from {SRC}")
    return mildsde


def artifact_digests(directory: Path) -> dict:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def manifest_verdicts(directory: Path) -> dict:
    manifest = directory / "manifest.txt"
    if not manifest.is_file():
        return {}
    verdicts = {}
    for line in manifest.read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("verdict."):
            verdicts[key[len("verdict."):]] = value
    return verdicts


def repetition(config_path, trace: bool = False) -> dict:
    """Parse ``config_path`` and run it through ``cli.run`` once.

    Untraced, the config is parsed ``PARSES_PER_REPETITION`` times and each
    parse is timed.
    Traced, it is parsed once under the tracer, so that the parse-time
    margin check is counted, and per-layer metrics are returned.
    """
    import_package()
    from mildsde import cli

    if trace:
        from spans import Tracer
        tracing = Tracer()
    else:
        tracing = contextlib.nullcontext()
    with tracing as tracer:
        setup_s = []
        for _ in range(1 if trace else PARSES_PER_REPETITION):
            start = perf_counter()
            config = cli.parse_config(config_path)
            setup_s.append(perf_counter() - start)
        shutil.rmtree(config.output_dir, ignore_errors=True)
        error = None
        status = None
        start = perf_counter()
        try:
            status = cli.run(config)
        except Exception as exc:  # reported as failed experiments, not a crash
            error = f"{type(exc).__name__}: {exc}"
        run_s = perf_counter() - start
    result = {
        "setup_s": [] if trace else setup_s,
        "run_s": run_s,
        "status": status,
        "error": error,
        "experiments": list(config.experiments),
        "verdicts": manifest_verdicts(config.output_dir),
        "artifacts": artifact_digests(config.output_dir),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": trace,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["idle"] = tracer.idle()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(repetition(args.config, args.trace)))


if __name__ == "__main__":
    main()
