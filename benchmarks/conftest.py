"""Shared infrastructure for the figure/table reproduction benchmarks.

Each benchmark regenerates one table or figure from the paper's
evaluation: it runs the sweep, prints the same rows/series the paper
reports, writes them to ``.bench_build/results/`` at the repository
root (untracked, so a test run never rewrites a tracked file), and
asserts the result *shape* (who wins, by roughly what factor) —
absolute numbers differ because the substrate is a simulator, not the
authors' FPGA testbed.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = (pathlib.Path(__file__).resolve().parent.parent
               / ".bench_build" / "results")


@pytest.fixture
def report():
    """Print a report block and persist it under .bench_build/results/."""

    def writer(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")

    return writer


def pytest_configure(config):
    # The reproduction sweeps are deterministic one-shot experiments;
    # a single benchmark round measures them faithfully.
    config.option.benchmark_min_rounds = 1
    config.option.benchmark_warmup = False
