"""Columnar text formats for reports, plot data and manifests.

All numbers are printed with 17 significant digits so identical runs produce
byte-identical files; nothing time- or host-dependent is ever written.
Files are written atomically (temp file in the target directory, then
rename), so concurrent writers never interleave bytes.  The exact layouts
are documented in the README with byte-exact examples.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "Record",
    "fmt",
    "atomic_write_text",
    "write_report",
    "write_plot_data",
    "write_manifest",
]


def fmt(value) -> str:
    """Render a number with 17 significant digits (round-trip exact for float64)."""
    return f"{float(value):.17g}"


@dataclass(frozen=True)
class Record:
    """One report row: a named value with parameters, error bar and verdict."""

    label: str
    params: str = "-"
    value: float = 0.0
    stderr: float = 0.0
    verdict: str = "-"


def atomic_write_text(text: str, path) -> Path:
    """Write text to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def write_report(report, destination) -> Path:
    """Serialize a report: one tab-separated row per record.

    Columns: experiment, record label, parameters, value, standard error,
    verdict.  ``report`` is an ``analysis.ExperimentReport``; .rows are its records.
    """
    lines = [
        "# mildsde report v1",
        f"# experiment: {report.name}",
        f"# verdict: {report.verdict}",
        "# columns: experiment\trecord\tparams\tvalue\tstderr\tverdict",
    ]
    for rec in report.rows:
        lines.append(
            f"{report.name}\t{rec.label}\t{rec.params}\t{fmt(rec.value)}"
            f"\t{fmt(rec.stderr)}\t{rec.verdict}"
        )
    return atomic_write_text("\n".join(lines) + "\n", destination)


def write_plot_data(report, directory) -> list:
    """Emit one (x, y, err) file per curve of a report; returns written paths.

    ``report.curve_map`` maps curve names to (x, y, err) arrays.
    """
    written = []
    for curve, (x, y, err) in report.curve_map.items():
        lines = [
            "# mildsde plotdata v1",
            f"# experiment: {report.name}",
            f"# curve: {curve}",
            "# columns: x y err",
        ]
        for xi, yi, ei in zip(x, y, err):
            lines.append(f"{fmt(xi)} {fmt(yi)} {fmt(ei)}")
        path = Path(directory) / f"{report.name}.{curve}.dat"
        written.append(atomic_write_text("\n".join(lines) + "\n", path))
    return written


def write_manifest(entries: dict, destination) -> Path:
    """key = value manifest; insertion order preserved, no timestamps."""
    lines = ["# mildsde manifest v1"]
    for key, value in entries.items():
        lines.append(f"{key} = {value}")
    return atomic_write_text("\n".join(lines) + "\n", destination)
