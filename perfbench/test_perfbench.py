"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest -q perfbench``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bmcc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_DELTAS, WORKLOADS, Session, Workload, budget_cents, graph_fingerprint, load_expected,
    solution_fingerprint,
)

TINY = Workload("tiny", catalogs=2, query_delta=6, ratios=("0.05", "0.3"),
                n_datasets=60, points_per=10, theta=8, spread=0.03)


def declared(kind):
    """Declared metric names of ``kind`` with their units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def traced_counts(workdir, seed):
    workdir.mkdir(exist_ok=True)
    session = Session(TINY, seed, workdir, None)
    metrics, _ = run.traced_run(session)
    assert session.failed == 0
    return session, metrics


def affordable_components(catalog):
    """Components of the query graph restricted to individually affordable
    datasets, counted independently of the library."""
    cents = budget_cents(catalog.market, catalog.ratio)
    keep = {d for d in catalog.market.ids if catalog.market.price_cents(d) <= cents}
    parent = {d: d for d in keep}

    def find(u):
        while parent[u] != u:
            u = parent[u]
        return u

    for u in keep:
        for v in catalog.graph.adjacency[u]:
            if v in keep:
                parent[find(u)] = find(v)
    return len({find(u) for u in keep})


def test_measured_metrics_are_the_declared_ones(tmp_path):
    session = Session(TINY, 3, tmp_path, None)
    timed, context = run.timed_run(session, seconds=0)
    assert context["passes"] == 1 and set(timed) == set(declared("end_to_end"))
    _, traced = traced_counts(tmp_path / "traced", 3)
    assert set(traced) == set(declared("per_layer"))


def test_traced_counts_repeat_exactly_and_match_the_graph(tmp_path):
    session, first = traced_counts(tmp_path / "a", 5)
    _, second = traced_counts(tmp_path / "b", 5)
    counts = [k for k, unit in declared("per_layer").items() if unit != "s"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}

    comps = sum(affordable_components(c) for c in session.catalogs)
    assert first["solvers.center_exact_calls"] == comps
    # dpsa and dpsa-ba each run budgeted_greedy under both flags per component
    assert first["solvers.greedy_calls"] == 2 * 2 * comps
    assert first["grid.points"] == TINY.catalogs * TINY.n_datasets * TINY.points_per


def test_self_times_add_up_and_originals_are_restored(tmp_path):
    originals = {(m, n): getattr(sys.modules[m], n.split(".")[0]) for m, n, _ in spans.WRAPPED}
    build = bmcc.Marketplace.__dict__["build"]
    tracer = spans.Tracer()
    session = Session(TINY, 1, tmp_path, None)
    session.setup()
    with spans.installed(tracer):
        assert bmcc.solvers.connected_components is not originals[("bmcc.graph",
                                                                   "connected_components")]
        session.run_pass()
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.top_level_s, rel=1e-9)
    assert all(v >= 0 for v in tracer.self_s.values())
    for (m, n), fn in originals.items():
        assert getattr(sys.modules[m], n.split(".")[0]) is fn
    assert bmcc.solvers.connected_components is bmcc.graph.connected_components
    assert bmcc.Marketplace.__dict__["build"] is build


def test_graph_fingerprints_equal_the_naive_builder(tmp_path):
    session = Session(TINY, 2, tmp_path, None)
    session.setup()
    session.run_pass()
    for c in session.catalogs:
        for delta in SWEEP_DELTAS:
            naive = bmcc.build_graph_naive(c.market, delta)
            want = graph_fingerprint(naive, bmcc.connected_components(naive))
            assert session.fingerprints[f"{c.name}.graph.{spans.delta_label(delta)}"] == want


def test_query_path_matches_the_exact_oracle(tmp_path):
    small = replace(TINY, catalogs=4, n_datasets=12, ratios=("0.2", "0.5"),
                    solvers=("exact",) + TINY.solvers)
    session = Session(small, 4, tmp_path, None)
    session.setup()
    for c in session.catalogs:
        cents = budget_cents(c.market, c.ratio)
        _, _, oracle = session._query(c, "exact", cents)
        direct = bmcc.solve_exact(c.market, Decimal(cents).scaleb(-2), small.query_delta,
                                  graph=c.graph)
        assert oracle.coverage > 0
        assert solution_fingerprint(oracle) == solution_fingerprint(direct)
        for solver in TINY.solvers:
            _, _, solution = session._query(c, solver, cents)
            assert solution.coverage <= oracle.coverage


def test_mismatch_and_exception_count_as_failures(tmp_path):
    session = Session(TINY, 1, tmp_path, {"c0.inputs": "0" * 16})
    assert (session.attempted, session.failed) == (TINY.catalogs, 1)
    session.setup()
    session.catalogs[0].catalog_file = tmp_path / "missing" / "catalog.txt"
    metrics, _ = session.run_pass()
    assert session.failed == 3
    assert "solve_s.dsa" in metrics


def test_committed_fingerprints_cover_both_workloads():
    expected = load_expected(7)
    assert expected is not None
    for wl in WORKLOADS.values():
        d = spans.delta_label(wl.query_delta)
        for i in range(wl.catalogs):
            r = wl.ratios[i % len(wl.ratios)]
            assert {f"c{i}.{s}@{d}/r{r}" for s in wl.solvers} <= set(expected)
            assert {f"c{i}.{k}" for k in ("inputs", "catalog", "round-trip")} <= set(expected)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "solve-dense",
                           "--seed", "7", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
