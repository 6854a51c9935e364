"""Command-line harness: ingest point files, build graphs, run solvers,
verify results and execute parameter sweeps.

Exit codes: 0 success, 1 usage error, 2 data error, 3 feasibility failure.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .grid import (
    GridConfig,
    GridError,
    PointDataset,
    open_text,
    rasterize,
    read_points_file,
    write_points_file,
)
from .graph import (
    GraphConfigError,
    build_graph_indexed,
    build_graph_naive,
    write_adjacency,
)
from .marketplace import (
    EXPLICIT_TABLE,
    Marketplace,
    MarketplaceError,
    PricingFunction,
    USAGE_BASED,
    cents_to_decimal,
    load_catalog,
    save_catalog,
    to_cents,
)
from .solvers import (
    OracleCapError,
    SOLVER_LABELS,
    Solution,
    solve,
    verify_solution,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INFEASIBLE = 3

DEFAULT_THETA = 11
DEFAULT_DELTA = 10.0
DEFAULT_BUDGET_RATIO = 0.1
DEFAULT_SPREAD = 0.012


class ReportFormatError(ValueError):
    """A solve report given to ``verify`` is not valid JSON or lacks a field."""


_DATA_ERRORS = (GridError, MarketplaceError, GraphConfigError, OracleCapError,
                ReportFormatError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    """Resolved run parameters; sweep axes are only used by ``bench``."""

    theta: int = DEFAULT_THETA
    delta: float = DEFAULT_DELTA
    budget: str | None = None
    budget_ratio: float | None = None
    pricing: str = "usage"
    solvers: tuple[str, ...] = ("dsa", "dpsa-ba", "cmc-mc", "cmc-mg")
    seed: int = 0
    oracle_cap: int = 15
    budgets: tuple[str, ...] = ()
    budget_ratios: tuple[float, ...] = ()
    deltas: tuple[float, ...] = ()
    thetas: tuple[int, ...] = ()
    scales: tuple[float, ...] = ()

    def resolve_budget_cents(self, total_cents: int) -> int:
        """Ratio takes precedence over an absolute budget when both appear."""
        if self.budget_ratio is not None:
            return math.floor(self.budget_ratio * total_cents)
        if self.budget is not None:
            return to_cents(self.budget)
        return math.floor(DEFAULT_BUDGET_RATIO * total_cents)


def _read_config_file(path) -> dict:
    values = {}
    with open_text(path, MarketplaceError) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MarketplaceError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            values[key] = value.strip()
    return values


def _build_run_config(args) -> RunConfig:
    cfg = RunConfig()
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def pick(name, cast, list_of=None):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        if name in file_values:
            raw = file_values[name]
            if list_of is not None:
                return tuple(list_of(part.strip()) for part in raw.split(",") if part.strip())
            return cast(raw)
        return getattr(cfg, name)

    cfg.theta = pick("theta", int)
    cfg.delta = pick("delta", float)
    cfg.budget = pick("budget", str)
    cfg.budget_ratio = pick("budget_ratio", float)
    cfg.pricing = pick("pricing", str)
    solvers = pick("solvers", str, list_of=str)
    if isinstance(solvers, str):
        solvers = tuple(s.strip() for s in solvers.split(",") if s.strip())
    cfg.solvers = tuple(solvers)
    cfg.seed = pick("seed", int)
    cfg.oracle_cap = pick("oracle_cap", int)
    cfg.budgets = tuple(pick("budgets", str, list_of=str) or ())
    cfg.budget_ratios = tuple(pick("budget_ratios", float, list_of=float) or ())
    cfg.deltas = tuple(pick("deltas", float, list_of=float) or ())
    cfg.thetas = tuple(pick("thetas", int, list_of=int) or ())
    cfg.scales = tuple(pick("scales", float, list_of=float) or ())
    for label in cfg.solvers:
        if label not in SOLVER_LABELS:
            raise SystemExit(_usage(f"unknown solver label {label!r}; "
                                    f"choose from {', '.join(SOLVER_LABELS)}"))
    for m in cfg.scales:
        if not 0 < m <= 1:
            raise SystemExit(_usage(f"scale fractions must be in (0, 1], got {m}"))
    ratio = () if cfg.budget_ratio is None else (cfg.budget_ratio,)
    for name, values in (("delta", (cfg.delta,)), ("deltas", cfg.deltas),
                         ("budget-ratio", ratio), ("budget-ratios", cfg.budget_ratios)):
        for v in values:
            if not (math.isfinite(v) and v >= 0):
                raise SystemExit(_usage(f"{name} must be finite and non-negative, got {v}"))
    return cfg


def _usage(message) -> int:
    sys.stderr.write(f"error: {message}\n")
    return EXIT_USAGE


def _read_price_table(path) -> dict:
    table = {}
    with open_text(path, MarketplaceError) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MarketplaceError(f"{path}:{line_no}: expected '<id> <price>'")
            table[parts[0]] = parts[1]
    return table


def _pricing_from_args(kind, table_path) -> PricingFunction:
    if kind in ("usage", USAGE_BASED):
        return PricingFunction.usage_based()
    if kind in ("table", EXPLICIT_TABLE):
        if not table_path:
            raise MarketplaceError("table pricing requires --price-table")
        return PricingFunction.from_table(_read_price_table(table_path))
    raise MarketplaceError(f"unknown pricing kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    datasets = read_points_file(args.points, delimiter=args.delimiter)
    grid = GridConfig.from_envelope(datasets, theta=args.theta or DEFAULT_THETA,
                                    bounds=args.bounds)
    rasterized = [rasterize(d, grid) for d in datasets]
    pricing = _pricing_from_args(args.pricing, args.price_table)
    market = Marketplace.build(grid, rasterized, pricing)
    save_catalog(market, args.catalog)
    n_points = sum(len(d.points) for d in datasets)
    allp = np.concatenate([d.points for d in datasets])
    print(f"ingested: {args.catalog}")
    print(f"storage_bytes: {os.path.getsize(args.points)}")
    print(f"datasets: {len(market)}")
    print(f"points: {n_points}")
    print(f"x_range: [{float(allp[:, 0].min())!r}, {float(allp[:, 0].max())!r}]")
    print(f"y_range: [{float(allp[:, 1].min())!r}, {float(allp[:, 1].max())!r}]")
    print(f"theta: {grid.theta}")
    print(f"total_price: {cents_to_decimal(market.total_price_cents)}")
    return EXIT_OK


def generate_datasets(n_datasets: int, points_per: int, spread: float,
                      seed: int) -> list[PointDataset]:
    """Clustered synthetic point datasets in the unit square, reproducible
    from the seed: one uniform cluster center per dataset plus gaussian
    offsets of scale ``spread``."""
    rng = np.random.default_rng(seed)
    width = len(str(max(1, n_datasets - 1)))
    datasets = []
    for i in range(n_datasets):
        center = rng.uniform(0.0, 1.0, size=2)
        offsets = rng.normal(0.0, spread, size=(points_per, 2)) if spread > 0 \
            else np.zeros((points_per, 2))
        pts = np.clip(center + offsets, 0.0, 1.0)
        datasets.append(PointDataset(id=f"d{i:0{width}d}", points=pts))
    return datasets


def cmd_gen(args) -> int:
    if args.datasets < 1 or args.points_per < 1 or args.spread < 0:
        return _usage("gen requires datasets >= 1, points-per >= 1, spread >= 0")
    datasets = generate_datasets(args.datasets, args.points_per, args.spread, args.seed)
    write_points_file(args.points, datasets)
    print(f"generated: {args.points} ({args.datasets} datasets, "
          f"{args.datasets * args.points_per} points, seed {args.seed})")
    return EXIT_OK


def _build_graph(market, delta, naive=False):
    t0 = time.perf_counter()
    if naive:
        graph = build_graph_naive(market, delta)
    else:
        graph = build_graph_indexed(market, delta)
    return graph, (time.perf_counter() - t0) * 1000.0


def cmd_build_graph(args) -> int:
    market = load_catalog(args.catalog)
    cfg = _build_run_config(args)
    graph, build_ms = _build_graph(market, cfg.delta, naive=args.naive)
    stats = graph.stats()
    print(f"catalog: {args.catalog}")
    print(f"delta: {graph.delta!r}")
    print(f"nodes: {stats.nodes}")
    print(f"edges: {stats.edges}")
    print(f"average_degree: {stats.average_degree:.6f}")
    print(f"components: {stats.components}")
    print(f"build_ms: {build_ms:.3f}")
    if args.adjacency_out:
        write_adjacency(graph, args.adjacency_out)
        print(f"adjacency: {args.adjacency_out}")
    return EXIT_OK


def _solution_dict(sol: Solution, report, ms) -> dict:
    out = {
        "algorithm": sol.algorithm,
        "status": sol.status,
        "selected": list(sol.selected),
        "total_price": str(sol.total_price),
        "coverage": sol.coverage,
        "within_budget": report.within_budget,
        "connected": report.connected,
        "verified": report.ok,
        "solve_ms": round(ms, 3),
    }
    if sol.round_coverages is not None:
        out["round_coverages"] = list(sol.round_coverages)
    return out


def _print_solution_block(entry) -> None:
    print(f"algorithm: {entry['algorithm']}")
    print(f"  status: {entry['status']}")
    print(f"  selected: {' '.join(entry['selected']) if entry['selected'] else '-'}")
    print(f"  total_price: {entry['total_price']}")
    print(f"  coverage: {entry['coverage']}")
    print(f"  within_budget: {str(entry['within_budget']).lower()}")
    print(f"  connected: {str(entry['connected']).lower()}")
    if "round_coverages" in entry:
        print(f"  round_coverages: {entry['round_coverages'][0]} {entry['round_coverages'][1]}")
    print(f"  verified: {str(entry['verified']).lower()}")
    print(f"  solve_ms: {entry['solve_ms']}")


def cmd_solve(args) -> int:
    market = load_catalog(args.catalog)
    cfg = _build_run_config(args)
    budget_cents = cfg.resolve_budget_cents(market.total_price_cents)
    budget = cents_to_decimal(budget_cents)
    graph, build_ms = _build_graph(market, cfg.delta, naive=args.naive)
    stats = graph.stats()
    print(f"catalog: {args.catalog}")
    print(f"datasets: {len(market)}")
    print(f"delta: {graph.delta!r}")
    print(f"budget: {budget}")
    print(f"graph: nodes={stats.nodes} edges={stats.edges} "
          f"avg_degree={stats.average_degree:.6f} components={stats.components}")
    print(f"graph_build_ms: {build_ms:.3f}")
    entries = []
    all_ok = True
    for label in cfg.solvers:
        t0 = time.perf_counter()
        sol = solve(label, market, budget, cfg.delta, graph=graph,
                    oracle_cap=cfg.oracle_cap)
        ms = (time.perf_counter() - t0) * 1000.0
        report = verify_solution(graph, sol, budget)
        all_ok = all_ok and report.ok
        entry = _solution_dict(sol, report, ms)
        entries.append(entry)
        _print_solution_block(entry)
    if args.json_out:
        payload = {"catalog": args.catalog, "budget": str(budget),
                   "delta": graph.delta, "solutions": entries}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


_BENCH_COLUMNS = (
    "solver", "budget_ratio", "budget", "delta", "theta", "scale",
    "n_datasets", "graph_nodes", "graph_edges", "avg_degree", "components",
    "coverage", "total_price", "status", "feasible", "solve_ms", "graph_build_ms",
)


def _bench_point(datasets_by_id, ordered_ids, cfg, pricing, budget_spec, delta, theta, scale):
    """Run every solver at one parameter point; returns one row per solver."""
    take = math.ceil(scale * len(ordered_ids))
    chosen = sorted(ordered_ids[:take])
    subset = [datasets_by_id[did] for did in chosen]
    grid = GridConfig.from_envelope(subset, theta=theta)
    market = Marketplace.build(grid, [rasterize(d, grid) for d in subset], pricing)
    kind, value = budget_spec
    if kind == "ratio":
        budget_cents = math.floor(value * market.total_price_cents)
        ratio_repr = repr(value)
    else:
        budget_cents = to_cents(value)
        ratio_repr = "-"
    budget = cents_to_decimal(budget_cents)
    graph, build_ms = _build_graph(market, delta)
    stats = graph.stats()
    rows = []
    for label in cfg.solvers:
        t0 = time.perf_counter()
        sol = solve(label, market, budget, delta, graph=graph, oracle_cap=cfg.oracle_cap)
        ms = (time.perf_counter() - t0) * 1000.0
        report = verify_solution(graph, sol, budget)
        rows.append({
            "solver": label,
            "budget_ratio": ratio_repr,
            "budget": str(budget),
            "delta": repr(float(delta)),
            "theta": theta,
            "scale": repr(float(scale)),
            "n_datasets": len(market),
            "graph_nodes": stats.nodes,
            "graph_edges": stats.edges,
            "avg_degree": f"{stats.average_degree:.6f}",
            "components": stats.components,
            "coverage": sol.coverage,
            "total_price": str(sol.total_price),
            "status": sol.status,
            "feasible": str(report.ok).lower(),
            "solve_ms": f"{ms:.3f}",
            "graph_build_ms": f"{build_ms:.3f}",
        })
    return rows


def cmd_bench(args) -> int:
    cfg = _build_run_config(args)
    datasets = read_points_file(args.points, delimiter=args.delimiter)
    datasets_by_id = {d.id: d for d in datasets}
    pricing = _pricing_from_args(cfg.pricing, getattr(args, "price_table", None))
    rng = np.random.default_rng(cfg.seed)
    all_ids = sorted(datasets_by_id)
    ordered_ids = [all_ids[i] for i in rng.permutation(len(all_ids))]

    if cfg.budget_ratios:
        budget_axis = [("ratio", r) for r in cfg.budget_ratios]
    elif cfg.budgets:
        budget_axis = [("absolute", b) for b in cfg.budgets]
    elif cfg.budget_ratio is not None:
        budget_axis = [("ratio", cfg.budget_ratio)]
    elif cfg.budget is not None:
        budget_axis = [("absolute", cfg.budget)]
    else:
        budget_axis = [("ratio", DEFAULT_BUDGET_RATIO)]
    delta_axis = list(cfg.deltas) or [cfg.delta]
    theta_axis = list(cfg.thetas) or [cfg.theta]
    scale_axis = list(cfg.scales) or [1.0]

    points = itertools.product(budget_axis, delta_axis, theta_axis, scale_axis)
    rows = [row for p in points
            for row in _bench_point(datasets_by_id, ordered_ids, cfg, pricing, *p)]

    lines = ["\t".join(_BENCH_COLUMNS)]
    for row in rows:
        lines.append("\t".join(str(row[c]) for c in _BENCH_COLUMNS))
    table = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    bad = [r for r in rows if r["feasible"] != "true"]
    return EXIT_INFEASIBLE if bad else EXIT_OK


_REPORT_KEYS = ("algorithm", "selected", "total_price", "coverage")


def _load_report(path) -> list[Solution]:
    """Solutions of a ``solve --json-out`` report, or of a bare entry list."""
    with open_text(path, ReportFormatError) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ReportFormatError(f"{path}: not a JSON report: {exc}") from None
    entries = payload.get("solutions") if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise ReportFormatError(f"{path}: expected a list of solutions")
    solutions = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ReportFormatError(f"{path}: solution {i} is not an object")
        missing = [k for k in _REPORT_KEYS if k not in entry]
        if missing:
            raise ReportFormatError(f"{path}: solution {i} has no {missing[0]!r} key")
        selected = entry["selected"]
        if not (isinstance(selected, list) and all(isinstance(d, str) for d in selected)):
            raise ReportFormatError(f"{path}: solution {i}: 'selected' is not a list of ids")
        coverage = entry["coverage"]
        if isinstance(coverage, bool) or not isinstance(coverage, int) or coverage < 0:
            raise ReportFormatError(
                f"{path}: solution {i}: 'coverage' is not a non-negative integer")
        try:
            solutions.append(Solution(
                algorithm=entry["algorithm"],
                selected=tuple(selected),
                total_price_cents=to_cents(entry["total_price"]),
                coverage=coverage,
                status=entry.get("status", "ok"),
            ))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ReportFormatError(f"{path}: solution {i}: {exc}") from None
    return solutions


def cmd_verify(args) -> int:
    market = load_catalog(args.catalog)
    solutions = _load_report(args.report)
    cfg = _build_run_config(args)
    budget_cents = cfg.resolve_budget_cents(market.total_price_cents)
    budget = cents_to_decimal(budget_cents)
    graph, _ = _build_graph(market, cfg.delta)
    all_ok = True
    for sol in solutions:
        report = verify_solution(graph, sol, budget)
        all_ok = all_ok and report.ok
        checks = " ".join(f"{name}={str(ok).lower()}" for name, ok in report.checks())
        print(f"{sol.algorithm}: {checks}")
    print(f"verified: {str(all_ok).lower()}")
    return EXIT_OK if all_ok else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# Parser


def _add_run_flags(p, include_sweeps=False):
    p.add_argument("--theta", type=int, default=None, help="grid resolution exponent")
    p.add_argument("--delta", type=float, default=None, help="connectivity threshold (cells)")
    p.add_argument("--budget", type=str, default=None, help="absolute budget")
    p.add_argument("--budget-ratio", dest="budget_ratio", type=float, default=None,
                   help="budget as a ratio of total catalog price (overrides --budget)")
    p.add_argument("--pricing", choices=("usage", "table"), default=None)
    p.add_argument("--solvers", type=lambda s: tuple(x.strip() for x in s.split(",")),
                   default=None, help="comma list: " + ",".join(SOLVER_LABELS))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--oracle-cap", dest="oracle_cap", type=int, default=None)
    p.add_argument("--config", type=str, default=None,
                   help="key=value config file; explicit flags override it")
    if include_sweeps:
        p.add_argument("--budgets", type=lambda s: tuple(x.strip() for x in s.split(",")),
                       default=None)
        p.add_argument("--budget-ratios", dest="budget_ratios",
                       type=lambda s: tuple(float(x) for x in s.split(",")), default=None)
        p.add_argument("--deltas", type=lambda s: tuple(float(x) for x in s.split(",")),
                       default=None)
        p.add_argument("--thetas", type=lambda s: tuple(int(x) for x in s.split(",")),
                       default=None)
        p.add_argument("--scales", type=lambda s: tuple(float(x) for x in s.split(",")),
                       default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bmcc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="rasterize a point file into a catalog")
    p.add_argument("points")
    p.add_argument("catalog")
    p.add_argument("--theta", type=int, default=None)
    p.add_argument("--bounds", type=float, nargs=4, default=None,
                   metavar=("X0", "Y0", "X1", "Y1"))
    p.add_argument("--pricing", choices=("usage", "table"), default="usage")
    p.add_argument("--price-table", dest="price_table", default=None)
    p.add_argument("--delimiter", default=",")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen", help="generate a synthetic point file")
    p.add_argument("points")
    p.add_argument("--datasets", type=int, default=100)
    p.add_argument("--points-per", dest="points_per", type=int, default=30)
    p.add_argument("--spread", type=float, default=DEFAULT_SPREAD)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build-graph", help="build the dataset graph and report stats")
    p.add_argument("catalog")
    _add_run_flags(p)
    p.add_argument("--naive", action="store_true", help="all-pairs construction")
    p.add_argument("--adjacency-out", dest="adjacency_out", default=None)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("solve", help="run solvers at one parameter point")
    p.add_argument("catalog")
    _add_run_flags(p)
    p.add_argument("--naive", action="store_true")
    p.add_argument("--json-out", dest="json_out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="parameter sweep over a point file")
    p.add_argument("points")
    _add_run_flags(p, include_sweeps=True)
    p.add_argument("--price-table", dest="price_table", default=None,
                   help="price file for --pricing table (one '<id> <price>' per line)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--out", default=None, help="TSV output path (default stdout)")
    p.add_argument("--json-out", dest="json_out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="re-verify a solve report against a catalog")
    p.add_argument("catalog")
    p.add_argument("report")
    _add_run_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except KeyError as exc:
        sys.stderr.write(f"error: unknown dataset id {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
