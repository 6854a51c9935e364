"""Seeded inputs, workload definitions and the closed-loop client of the
bmcc benchmark.

One :class:`Session` is one client driving the public library API from a
single thread. It generates its own catalogs from the seed, sets each one up
(points in memory -> catalog -> query graph), and then runs passes. Every
pass is the same fixed list of operations, per catalog the steps a user of
the library pays for:

* ingest: point file -> grid -> rasterize -> priced catalog -> catalog file;
* catalog load: catalog file -> catalog, checked against the in-memory one;
* graph sweep: one ``build_graph_indexed`` call per delta, plus components;
* queries: every solver at the catalog's budget ratio on the query graph,
  each checked with ``verify_solution``.

Each operation's output is fingerprinted and compared with the committed
fingerprints of the seed (``expected.json``) or, for a seed with none, with
the first pass. A mismatch or an exception counts as one failed operation.
"""

import hashlib
import json
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import bmcc
from spans import delta_label

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

SOLVERS = ("dsa", "dpsa", "dpsa-ba", "cmc-mc", "cmc-mg")
SWEEP_DELTAS = (0, 5, 10, 40)

# The speed probe is a fixed piece of benchmark-owned interpreter work of the
# kind the library's hot loops do: string-keyed lookups, a keyed sort and
# small frozenset intersections. The CPU speed of a shared host can swing by
# half or more for seconds to minutes at a time, so the probe runs just
# before and just after each timed operation, and the operation's seconds
# are rescaled to the speed at which the probe takes PROBE_REFERENCE_S.
PROBE_REFERENCE_S = 0.0006
_PROBE_IDS = [f"d{i:03d}" for i in range(120)]
_PROBE_SETS = [frozenset(range(i, i + 20)) for i in range(0, 600, 7)]
_PROBE_UNIVERSE = frozenset(range(0, 600, 3))


def probe():
    """Seconds the speed probe takes now."""
    t0 = time.perf_counter()
    index = {k: i for i, k in enumerate(_PROBE_IDS)}
    for _ in range(8):
        sorted(_PROBE_IDS, key=lambda k: (index[k] % 7, k))
        for cells in _PROBE_SETS:
            len(cells & _PROBE_UNIVERSE)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    """Shape of one workload; every field is fixed, only the seed varies.

    Catalog i is queried at budget ratio ``ratios[i % len(ratios)]``, a share
    of the catalog's total price.
    """

    name: str
    catalogs: int
    query_delta: float
    ratios: tuple[str, ...]
    n_datasets: int = 250
    points_per: int = 20
    theta: int = 10
    spread: float = 0.024
    solvers: tuple[str, ...] = SOLVERS


# Each catalog has the local geometry of 1000 datasets with spread 0.012 on
# a 2**11 grid (same centre density and blob size in cells) on a quarter of
# the area. The work of one large catalog varies by about a quarter from
# seed to seed with the shape of its giant component, so a run sums many
# small independent catalogs instead.
#
# At delta=10 most of a catalog sits in one giant component with long BFS
# paths and many leaves: per-step rescoring in budgeted_greedy and the exact
# centre dominate. At delta=2 a catalog falls into a hundred-odd tiny
# components and per-call set-up in budgeted_greedy dominates. dsa does the
# same work per catalog on both. Catalog i of a seed is the same in both
# workloads.
WORKLOADS = {
    "solve-dense": Workload("solve-dense", 32, 10, ("0.3", "0.02")),
    "solve-sparse": Workload("solve-sparse", 16, 2, ("0.1",)),
}


def generate_points(n_datasets, points_per, spread, rng):
    """Clustered datasets in the unit square: one uniform centre per dataset
    plus gaussian offsets of scale ``spread``, clipped to the square.

    The benchmark owns this generator so that no change to the library can
    change a workload's inputs.
    """
    width = len(str(max(1, n_datasets - 1)))
    datasets = []
    for i in range(n_datasets):
        centre = rng.uniform(0.0, 1.0, size=2)
        offsets = rng.normal(0.0, spread, size=(points_per, 2))
        datasets.append(bmcc.PointDataset(id=f"d{i:0{width}d}",
                                          points=np.clip(centre + offsets, 0.0, 1.0)))
    return datasets


def catalog_rng(seed, index):
    """Catalog 0 draws from ``seed`` itself, catalog i > 0 from (seed, i)."""
    return np.random.default_rng(seed if index == 0 else [seed, index])


def inputs_digest(datasets):
    h = hashlib.sha256()
    for d in datasets:
        h.update(d.id.encode())
        h.update(np.ascontiguousarray(d.points, dtype="<f8").tobytes())
    return h.hexdigest()[:12]


def write_points(path, datasets):
    """Write the point-file format that ``bmcc ingest`` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dataset_id,x,y\n")
        for d in datasets:
            fh.writelines(f"{d.id},{float(x)!r},{float(y)!r}\n" for x, y in d.points)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def graph_fingerprint(graph, components):
    """Component count and a digest of the edge set."""
    edges = "".join(f"{u} {v}\n" for u, nbrs in graph.adjacency.items()
                    for v in nbrs if u < v)
    return f"{len(components)}/{_digest(edges)}"


def solution_fingerprint(solution):
    """Coverage, price in cents and a digest of the selected ids."""
    selected = _digest("\n".join(solution.selected))
    return f"{solution.coverage}/{solution.total_price_cents}/{selected}"


def same_catalog(a, b):
    return (a.ids == b.ids and a.grid == b.grid
            and all(np.array_equal(a.dataset(i).cells, b.dataset(i).cells)
                    and a.price_cents(i) == b.price_cents(i) for i in a.ids))


def budget_cents(market, ratio):
    return int(market.total_price_cents * Fraction(ratio))


def load_expected(seed):
    """Committed fingerprints of ``seed``, or None when none are committed."""
    with open(EXPECTED_FILE, encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


class Catalog:
    """One generated catalog: its points, files, ratio and, once set up, its
    marketplace and query graph."""

    def __init__(self, name, points, ratio, workdir):
        self.name = name
        self.points = points
        self.ratio = ratio
        self.point_file = Path(workdir) / f"{name}.points.csv"
        self.catalog_file = Path(workdir) / f"{name}.catalog.txt"
        write_points(self.point_file, points)
        self.market = None
        self.graph = None


class Session:
    """One closed-loop client running one workload at one seed."""

    def __init__(self, workload, seed, workdir, expected=None):
        self.workload = workload
        self.expected = expected
        self.fingerprints = {}
        self.attempted = 0
        self.failed = 0
        self.speeds = []  # probe time over its reference, per timed operation
        self.catalogs = []
        for i in range(workload.catalogs):
            points = generate_points(workload.n_datasets, workload.points_per,
                                     workload.spread, catalog_rng(seed, i))
            ratio = workload.ratios[i % len(workload.ratios)]
            self.catalogs.append(Catalog(f"c{i}", points, ratio, workdir))
        self.digest = inputs_digest([d for c in self.catalogs for d in c.points])
        for c in self.catalogs:
            self._check(f"{c.name}.inputs", lambda c=c: (0.0, inputs_digest(c.points), None))

    # -- correctness accounting ------------------------------------------

    def _check(self, key, operation):
        """Run one operation and compare its fingerprint with the committed
        one or, failing that, with the first run of the same operation.

        ``operation`` returns ``(seconds, fingerprint, value)``, where
        ``seconds`` covers the library calls only. Returns ``(seconds,
        value)`` with the seconds rescaled to the probe's reference speed,
        or None when the operation raised.
        """
        self.attempted += 1
        before = probe()
        try:
            seconds, got, value = operation()
        except Exception:
            self.failed += 1
            print(f"perfbench: {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        want = self.expected.get(key) if self.expected else None
        if want is None:
            want = self.fingerprints.setdefault(key, got)
        else:
            self.fingerprints[key] = got
        if got != want:
            self.failed += 1
            print(f"perfbench: {key} gave {got}, expected {want}", file=sys.stderr)
        return seconds / self._speed(before), value

    def _speed(self, before):
        """Probe again after an operation that ``before`` probed ahead of;
        returns how much slower than the reference the host ran."""
        speed = (before + probe()) / (2 * PROBE_REFERENCE_S)
        self.speeds.append(speed)
        return speed

    # -- set-up and one pass -----------------------------------------------

    def setup(self):
        """Points in memory -> catalog and query graph, for every catalog;
        returns the seconds of each, rescaled to the probe's reference speed."""
        wl = self.workload
        seconds = []
        for c in self.catalogs:
            before = probe()
            t0 = time.perf_counter()
            grid = bmcc.GridConfig.from_envelope(c.points, wl.theta)
            market = bmcc.Marketplace.build(grid, [bmcc.rasterize(p, grid) for p in c.points],
                                            bmcc.PricingFunction.usage_based())
            graph = bmcc.build_graph_indexed(market, wl.query_delta)
            seconds.append((time.perf_counter() - t0) / self._speed(before))
            c.market, c.graph = market, graph
        return seconds

    def run_pass(self):
        """Run every operation once.

        Returns ``(metrics, outcome)``: the pass's end-to-end timings by
        metric name; the graphs' edge and component totals and largest
        component by delta label; and, by solver, the selected count,
        coverage and unspent budget summed over the catalogs queried at the
        workload's largest budget ratio.
        """
        wl = self.workload
        samples = {}
        graphs = {delta_label(d): {"edges": 0, "components": 0, "giant": 0}
                  for d in SWEEP_DELTAS}
        solutions = {s: {"selected": 0, "coverage": 0, "budget_left_cents": 0}
                     for s in wl.solvers}
        top_ratio = max(wl.ratios, key=Fraction)

        def record(name, result):
            if result is not None:
                samples.setdefault(name, []).append(result[0])
            return result

        for c in self.catalogs:
            record("ingest_s", self._check(f"{c.name}.catalog", lambda: self._ingest(c)))
            record("catalog_load_s", self._check(f"{c.name}.round-trip", lambda: self._load(c)))
            for delta in SWEEP_DELTAS:
                label = delta_label(delta)
                result = record(f"graph_build_s.{label}",
                                self._check(f"{c.name}.graph.{label}",
                                            lambda: self._sweep(c, delta)))
                if result is not None:
                    graph, components = result[1]
                    g = graphs[label]
                    g["edges"] += graph.n_edges
                    g["components"] += len(components)
                    g["giant"] = max(g["giant"], max(len(comp) for comp in components))

            cents = budget_cents(c.market, c.ratio)
            for solver in wl.solvers:
                key = f"{c.name}.{solver}@{delta_label(wl.query_delta)}/r{c.ratio}"
                result = record(f"solve_s.{solver}",
                                self._check(key, lambda: self._query(c, solver, cents)))
                if result is not None and c.ratio == top_ratio:
                    out = solutions[solver]
                    out["selected"] += len(result[1].selected)
                    out["coverage"] += result[1].coverage
                    out["budget_left_cents"] += cents - result[1].total_price_cents

        metrics = {name: (sum(v) if name.startswith("solve_s.") else statistics.median(v))
                   for name, v in samples.items()}
        solved = [t for name, v in samples.items() if name.startswith("solve_s.") for t in v]
        if solved:
            metrics["queries_per_s"] = len(solved) / sum(solved)
        return metrics, {"graphs": graphs, "solutions": solutions}

    # -- operations: (seconds of library calls, fingerprint, value) ---------

    def _ingest(self, c):
        t0 = time.perf_counter()
        datasets = bmcc.read_points_file(c.point_file)
        grid = bmcc.GridConfig.from_envelope(datasets, self.workload.theta)
        market = bmcc.Marketplace.build(grid, [bmcc.rasterize(d, grid) for d in datasets],
                                        bmcc.PricingFunction.usage_based())
        bmcc.save_catalog(market, c.catalog_file)
        seconds = time.perf_counter() - t0
        return seconds, hashlib.sha256(c.catalog_file.read_bytes()).hexdigest()[:12], None

    def _load(self, c):
        t0 = time.perf_counter()
        loaded = bmcc.load_catalog(c.catalog_file)
        seconds = time.perf_counter() - t0
        return seconds, "same" if same_catalog(loaded, c.market) else "differs", None

    def _sweep(self, c, delta):
        t0 = time.perf_counter()
        graph = bmcc.build_graph_indexed(c.market, delta)
        seconds = time.perf_counter() - t0
        components = bmcc.connected_components(graph)
        return seconds, graph_fingerprint(graph, components), (graph, components)

    def _query(self, c, solver, cents):
        budget = Decimal(cents).scaleb(-2)
        t0 = time.perf_counter()
        solution = bmcc.solve(solver, c.market, budget, self.workload.query_delta,
                              graph=c.graph)
        seconds = time.perf_counter() - t0
        if not bmcc.verify_solution(c.graph, solution, budget).ok:
            raise AssertionError(f"{solver} returned a solution that fails verification")
        return seconds, solution_fingerprint(solution), solution
