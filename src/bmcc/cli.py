"""Command-line harness: ingest point files, build graphs, run solvers,
verify results and execute parameter sweeps.

Each subcommand registers only the flags it reads, and argparse checks every
value. ``--config`` names a file of ``key = value`` lines whose keys are the
subcommand's flag names; its lines are parsed as ``--key=value`` flags ahead
of the command line, and the last flag given for a setting wins, so explicit
flags override the file.

Exit codes: 0 success, 1 usage error, 2 data error, 3 feasibility failure.
"""

import argparse
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np

from .grid import (
    MAX_THETA,
    GridConfig,
    GridError,
    PointDataset,
    open_text,
    rasterize,
    read_points_file,
    write_points_file,
)
from .graph import GraphConfigError, build_graph_indexed, write_adjacency
from .marketplace import (
    Marketplace,
    MarketplaceError,
    PricingFunction,
    UnknownDatasetError,
    cents_to_decimal,
    load_catalog,
    price_to_cents,
    save_catalog,
    to_cents,
)
from .solvers import (
    ORACLE_CAP,
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
DEFAULT_BUDGET = ("ratio", Fraction(1, 10))
DEFAULT_SPREAD = 0.012
DEFAULT_SOLVERS = ("dsa", "dpsa-ba", "cmc-mc", "cmc-mg")


class ReportFormatError(ValueError):
    """A solve report given to ``verify`` is not valid JSON or lacks a field."""


_DATA_ERRORS = (GridError, MarketplaceError, GraphConfigError, OracleCapError,
                ReportFormatError, OSError)


class _UsageError(Exception):
    """A bad flag or config key; ``main`` prints it as one ``error:`` line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _checked(cast, ok, requirement, tag=None):
    """An argparse ``type=``: cast the flag's text, then reject a value
    failing ``ok``. Either failure is a usage error naming the flag. A
    ``tag`` makes the value ``(tag, value)``, so that two flags can write one
    setting and still say which of them was given last."""
    def parse(text):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
        return value if tag is None else (tag, value)
    parse.__name__ = cast.__name__.lstrip("_")
    return parse


def _comma_list(item):
    """An argparse ``type=`` for a non-empty comma-separated list of ``item``."""
    def parse(text):
        values = tuple(item(part.strip()) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
        return values
    parse.__name__ = item.__name__
    return parse


def _decimal(text) -> Fraction:
    """The exact value of a decimal string: '0.29' is 29/100, not its float.

    The float screens the string first: '1/3' and 'nan' fail, and an exponent
    past a float's range gives inf, which fails, or 0, which is taken as 0
    (its budget floors to 0 cents on any catalog under 1e323 cents). So
    ``Fraction`` never builds a huge power of ten."""
    approx = float(text)
    if not math.isfinite(approx):
        raise ValueError(f"not finite: {text!r}")
    return Fraction(text) if approx else Fraction(0)


_NON_NEGATIVE = _checked(float, lambda x: math.isfinite(x) and x >= 0,
                         "finite and non-negative")
_FINITE = _checked(float, math.isfinite, "finite")
_SCALE = _checked(_decimal, lambda m: 0 < m <= 1, "in (0, 1]")
_THETA = _checked(int, lambda t: 1 <= t <= MAX_THETA, f"in [1, {MAX_THETA}]")
_COUNT = _checked(int, lambda n: n >= 0, "non-negative")
_POSITIVE = _checked(int, lambda n: n >= 1, "at least 1")
_SOLVER = _checked(str, lambda s: s in SOLVER_LABELS, "one of " + ", ".join(SOLVER_LABELS))
# The budget is a ``("ratio", Fraction)`` of the catalog total or an
# ``("amount", text)``. Only the amount's sign is checked here: ``to_cents``
# rejects one that is not a finite whole number of cents as a data error, as
# it does in a price table.
_RATIO = _checked(_decimal, lambda r: 0 <= r <= 1, "in [0, 1]", tag="ratio")
_AMOUNT = _checked(str, lambda s: not s.lstrip().startswith("-"), "non-negative",
                   tag="amount")

_FLAGS = {
    "datasets": dict(type=_POSITIVE, default=100),
    "points-per": dict(type=_POSITIVE, default=30),
    "spread": dict(type=_NON_NEGATIVE, default=DEFAULT_SPREAD),
    "seed": dict(type=_COUNT, default=0),
    "theta": dict(type=_THETA, default=DEFAULT_THETA, help="grid resolution exponent"),
    "bounds": dict(type=_FINITE, nargs=4, metavar=("X0", "Y0", "X1", "Y1")),
    "price-table": dict(help="price file of one '<id> <price>' line per dataset; without "
                             "it a dataset's price is its coverage"),
    "delta": dict(type=_NON_NEGATIVE, default=DEFAULT_DELTA,
                  help="connectivity threshold (cells)"),
    "budget": dict(type=_AMOUNT, default=DEFAULT_BUDGET, metavar="AMOUNT",
                   help="absolute budget"),
    "budget-ratio": dict(type=_RATIO, dest="budget", default=DEFAULT_BUDGET, metavar="RATIO",
                         help="budget as a fraction of the total catalog price, floored "
                              "to cents; the last of --budget/--budget-ratio wins"),
    "solvers": dict(type=_comma_list(_SOLVER), default=DEFAULT_SOLVERS,
                    help="comma list: " + ",".join(SOLVER_LABELS)),
    "oracle-cap": dict(type=_COUNT, default=ORACLE_CAP),
    "scales": dict(type=_comma_list(_SCALE), default=(Fraction(1),),
                   help="comma list of exact decimal shares of the datasets; a scale "
                        "takes the first ceil(scale * n) of them"),
    "adjacency-out": {},
    "json-out": {},
    "out": dict(help="TSV output path (default stdout)"),
    "config": dict(help="file of 'key = value' lines, keys being this command's flag "
                        "names; explicit flags override it"),
}


def _config_args(path) -> list[str]:
    """The ``key = value`` lines of a config file as ``--key=value`` flags."""
    args = []
    with open_text(path, MarketplaceError) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MarketplaceError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            if key == "config":
                raise _UsageError(f"{path}:{line_no}: key 'config' cannot nest a file")
            args.append(f"--{key}={value.strip()}")
    return args


def _budget_cents(budget, total_cents) -> int:
    """The budget in cents: an absolute amount, or a ratio of the catalog
    total floored exactly."""
    kind, value = budget
    return to_cents(value) if kind == "amount" else math.floor(value * total_cents)


def _read_price_table(path) -> dict[str, int]:
    """The ``<id> <price>`` lines of a price table as positive cents per id."""
    table = {}
    with open_text(path, MarketplaceError) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise MarketplaceError(f"{path}:{line_no}: expected '<id> <price>'")
            if parts[0] in table:
                raise MarketplaceError(f"{path}:{line_no}: repeated id {parts[0]!r}")
            try:
                table[parts[0]] = price_to_cents(parts[1])
            except MarketplaceError as exc:
                raise MarketplaceError(f"{path}:{line_no}: {exc}") from None
    return table


def _pricing_from_args(table_path) -> PricingFunction:
    """Table pricing when ``--price-table`` is given, else usage pricing."""
    return PricingFunction(None if table_path is None else _read_price_table(table_path))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ingest(args) -> int:
    datasets = read_points_file(args.points)
    grid = GridConfig.from_envelope(datasets, theta=args.theta, bounds=args.bounds)
    rasterized = [rasterize(d, grid) for d in datasets]
    pricing = _pricing_from_args(args.price_table)
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
    datasets = generate_datasets(args.datasets, args.points_per, args.spread, args.seed)
    write_points_file(args.points, datasets)
    print(f"generated: {args.points} ({args.datasets} datasets, "
          f"{args.datasets * args.points_per} points, seed {args.seed})")
    return EXIT_OK


def _build_graph(market, delta):
    t0 = time.perf_counter()
    graph = build_graph_indexed(market, delta)
    return graph, (time.perf_counter() - t0) * 1000.0


def cmd_build_graph(args) -> int:
    market = load_catalog(args.catalog)
    graph, build_ms = _build_graph(market, args.delta)
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


def _run_solvers(labels, graph, budget, oracle_cap):
    """Solve, time and verify each solver in turn; yields ``(solution,
    verification report, solve ms)``."""
    for label in labels:
        t0 = time.perf_counter()
        sol = solve(label, graph.market, budget, graph.delta, graph=graph,
                    oracle_cap=oracle_cap)
        ms = (time.perf_counter() - t0) * 1000.0
        yield sol, verify_solution(graph, sol, budget), ms


def cmd_solve(args) -> int:
    market = load_catalog(args.catalog)
    budget = cents_to_decimal(_budget_cents(args.budget, market.total_price_cents))
    graph, build_ms = _build_graph(market, args.delta)
    stats = graph.stats()
    print(f"catalog: {args.catalog}")
    print(f"datasets: {len(market)}")
    print(f"delta: {graph.delta!r}")
    print(f"budget: {budget}")
    print(f"graph: nodes={stats.nodes} edges={stats.edges} "
          f"avg_degree={stats.average_degree:.6f} components={stats.components}")
    print(f"graph_build_ms: {build_ms:.3f}")
    entries = []
    for sol, report, ms in _run_solvers(args.solvers, graph, budget, args.oracle_cap):
        entry = _solution_dict(sol, report, ms)
        entries.append(entry)
        _print_solution_block(entry)
    if args.json_out:
        payload = {"catalog": args.catalog, "budget": str(budget),
                   "delta": graph.delta, "solutions": entries}
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK if all(e["verified"] for e in entries) else EXIT_INFEASIBLE


_BENCH_COLUMNS = (
    "solver", "budget_ratio", "budget", "delta", "theta", "scale",
    "n_datasets", "graph_nodes", "graph_edges", "avg_degree", "components",
    "coverage", "total_price", "status", "feasible", "solve_ms", "graph_build_ms",
)


def _bench_market(datasets_by_id, ordered_ids, pricing, theta, scale) -> Marketplace:
    """The catalog of one (theta, scale) point: the first ``scale`` share of
    the seeded dataset order, rasterized on a grid fitted to it."""
    take = math.ceil(scale * len(ordered_ids))
    subset = [datasets_by_id[did] for did in sorted(ordered_ids[:take])]
    grid = GridConfig.from_envelope(subset, theta=theta)
    return Marketplace.build(grid, [rasterize(d, grid) for d in subset], pricing)


def _bench_rows(args, graph, budget_spec, graph_columns):
    """Run every solver at one budget on one graph; returns one row per solver."""
    budget = cents_to_decimal(_budget_cents(budget_spec, graph.market.total_price_cents))
    return [{
        "solver": sol.algorithm,
        "budget_ratio": repr(float(budget_spec[1])) if budget_spec[0] == "ratio" else "-",
        "budget": str(budget),
        **graph_columns,
        "coverage": sol.coverage,
        "total_price": str(sol.total_price),
        "status": sol.status,
        "feasible": str(report.ok).lower(),
        "solve_ms": f"{ms:.3f}",
    } for sol, report, ms in _run_solvers(args.solvers, graph, budget, args.oracle_cap)]


def cmd_bench(args) -> int:
    datasets = read_points_file(args.points)
    datasets_by_id = {d.id: d for d in datasets}
    pricing = _pricing_from_args(args.price_table)
    rng = np.random.default_rng(args.seed)
    all_ids = sorted(datasets_by_id)
    ordered_ids = [all_ids[i] for i in rng.permutation(len(all_ids))]
    # One catalog per (theta, scale) and one graph per delta on it; the rows
    # are then listed in (budget, delta, theta, scale) order.
    by_point = {}
    for theta, scale in itertools.product(dict.fromkeys(args.theta), dict.fromkeys(args.scales)):
        market = _bench_market(datasets_by_id, ordered_ids, pricing, theta, scale)
        for delta in dict.fromkeys(args.delta):
            graph, build_ms = _build_graph(market, delta)
            stats = graph.stats()
            graph_columns = {
                "delta": repr(float(delta)),
                "theta": theta,
                "scale": repr(float(scale)),
                "n_datasets": len(market),
                "graph_nodes": stats.nodes,
                "graph_edges": stats.edges,
                "avg_degree": f"{stats.average_degree:.6f}",
                "components": stats.components,
                "graph_build_ms": f"{build_ms:.3f}",
            }
            for budget_spec in dict.fromkeys(args.budget):
                by_point[budget_spec, delta, theta, scale] = _bench_rows(
                    args, graph, budget_spec, graph_columns)
    points = itertools.product(args.budget, args.delta, args.theta, args.scales)
    rows = [row for p in points for row in by_point[p]]

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
        if len(set(selected)) != len(selected):
            raise ReportFormatError(f"{path}: solution {i}: 'selected' repeats an id")
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
    budget = cents_to_decimal(_budget_cents(args.budget, market.total_price_cents))
    graph, _ = _build_graph(market, args.delta)
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


def _add_command(sub, name, func, summary, positionals, flags, axes=()):
    """Register a subcommand and its flags; each flag in ``axes`` takes a
    comma list, and its default becomes a one-value list."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    for positional in positionals:
        p.add_argument(positional)
    for flag in flags:
        spec = _FLAGS[flag]
        if flag in axes:
            spec = dict(spec, type=_comma_list(spec["type"]), default=(spec["default"],))
        p.add_argument("--" + flag, **spec)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bmcc", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_command(sub, "ingest", cmd_ingest, "rasterize a point file into a catalog",
                 ("points", "catalog"),
                 ("theta", "bounds", "price-table"))
    _add_command(sub, "gen", cmd_gen, "generate a synthetic point file", ("points",),
                 ("datasets", "points-per", "spread", "seed"))
    _add_command(sub, "build-graph", cmd_build_graph,
                 "build the dataset graph and report stats", ("catalog",),
                 ("delta", "adjacency-out", "config"))
    _add_command(sub, "solve", cmd_solve, "run solvers at one parameter point",
                 ("catalog",),
                 ("delta", "budget", "budget-ratio", "solvers", "oracle-cap", "json-out",
                  "config"))
    _add_command(sub, "bench", cmd_bench, "parameter sweep over a point file", ("points",),
                 ("theta", "delta", "budget", "budget-ratio", "price-table", "solvers",
                  "seed", "oracle-cap", "scales", "out", "json-out", "config"),
                 axes=("theta", "delta", "budget", "budget-ratio"))
    _add_command(sub, "verify", cmd_verify, "re-verify a solve report against a catalog",
                 ("catalog", "report"), ("delta", "budget", "budget-ratio", "config"))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # The command line parsed alone, so an error now is the file's.
            config = _config_args(args.config)
            try:
                args = parser.parse_args(argv[:1] + config + argv[1:])
            except _UsageError as exc:
                raise _UsageError(f"{args.config}: {exc}") from None
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except _DATA_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except UnknownDatasetError as exc:
        sys.stderr.write(f"error: unknown dataset id {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
