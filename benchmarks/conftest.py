"""Shared benchmark infrastructure.

Every ``bench_figXX`` module reproduces one figure of the paper's §8: it
runs the corresponding harness function once under ``benchmark.pedantic``
(so ``pytest benchmarks/ --benchmark-only`` collects it), prints the
paper-vs-measured table, saves it under ``benchmarks/results/`` (both the
rendered ``.txt`` table and a machine-readable ``.json`` twin), and
asserts the figure's qualitative shape.

The repo root goes on ``sys.path`` so benches can import the test oracle
(``tests.reference_interp``) under bare ``pytest`` as well as under
``python -m pytest``.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.harness import ExperimentConfig, FigureResult

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def base_config() -> ExperimentConfig:
    """Scaled default experiment (see DESIGN.md scaling table)."""
    return ExperimentConfig(
        tree_size=2**14,
        batch_size=2**13,
        n_batches=2,
        fanout=32,
        num_sms=8,
    )


def emit(fig: FigureResult, results_dir: pathlib.Path) -> None:
    text = fig.render()
    print("\n" + text)
    name = fig.figure.lower().replace(".", "").replace(" ", "").replace("§", "sec")
    (results_dir / f"{name}.txt").write_text(text + "\n")
    (results_dir / f"{name}.json").write_text(fig.to_json(indent=2) + "\n")
