"""Shared benchmark fixtures.

Benchmarks default to REPRO_BENCH_RULES (2000) rules per ClassBench-style
classifier; raise it for closer-to-paper scale.  Every rendered table is
printed and also written to ``results/<name>.txt`` under pytest's base
temporary directory, whose path is printed with it.  The run leaves the
full reproduction record on disk without touching the tracked
``results/`` copies, since the tables carry this host's timings; to
publish a run, copy its files into ``results/``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import bench_rules, cached_suite


@pytest.fixture(scope="session")
def suite():
    """The 17-classifier benchmark suite (module-cached)."""
    return cached_suite(rules=bench_rules())


@pytest.fixture(scope="session")
def save_result(tmp_path_factory):
    """Write a rendered table to ``results/<name>.txt`` under the base
    temporary directory and echo it with its path."""
    results = tmp_path_factory.getbasetemp() / "results"

    def _save(name: str, text: str) -> None:
        results.mkdir(exist_ok=True)
        path = results / f"{name}.txt"
        path.write_text(text + "\n")
        print()
        print(text)
        print(f"(written to {path})")

    return _save
