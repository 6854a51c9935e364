import json
import re
import sys

import pytest

from bmcc.cli import main
from bmcc.graph import read_adjacency
from bmcc.marketplace import load_catalog, save_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_points(path, rows):
    path.write_text("dataset_id,x,y\n" + "\n".join(rows) + "\n")


@pytest.fixture()
def example2_catalog(tmp_path, example2_market):
    path = tmp_path / "example2.cat"
    save_catalog(example2_market, path)
    return str(path)


class TestIngest:
    def test_two_row_single_dataset(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.1,0.1", "a,0.9,0.9"])
        cat = tmp_path / "out.cat"
        code, out, _ = run(capsys, "ingest", str(pts), str(cat), "--theta", "3")
        assert code == 0
        assert "datasets: 1" in out
        assert "points: 2" in out
        assert "storage_bytes:" in out
        assert "x_range: [0.1, 0.9]" in out
        assert "y_range: [0.1, 0.9]" in out
        market = load_catalog(cat)
        assert len(market) == 1

    def test_out_of_bounds_point_is_data_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.5,0.5", "a,2.5,0.5"])
        cat = tmp_path / "out.cat"
        code, _, err = run(capsys, "ingest", str(pts), str(cat),
                           "--theta", "3", "--bounds", "0", "0", "1", "1")
        assert code == 2
        assert "outside" in err

    @pytest.mark.parametrize("bounds", [("nan", "0", "1", "1"), ("0", "0", "inf", "1")],
                             ids=["nan", "inf"])
    def test_non_finite_bounds_is_usage_error(self, tmp_path, capsys, bounds):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.5,0.5"])
        code, _, err = run(capsys, "ingest", str(pts), str(tmp_path / "x.cat"),
                           "--bounds", *bounds)
        assert code == 1
        bad = next(b for b in bounds if b in ("nan", "inf"))
        assert err.splitlines() == [f"error: argument --bounds: must be finite, got {bad!r}"]

    def test_overflowing_cell_index_is_one_data_error(self, tmp_path, capsys, recwarn):
        """Bounds so tight that the cell index overflows to inf: the point is
        outside, reported with plain floats, and numpy stays quiet."""
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.0906,0.2299"])
        code, _, err = run(capsys, "ingest", str(pts), str(tmp_path / "x.cat"),
                           "--bounds", "0", "0", "1e-320", "1e-320")
        assert code == 2
        assert err.splitlines() == [
            "error: dataset 'a': point (0.0906, 0.2299) outside the bounding space"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("dataset_id,x,y\na,0.1,0.2\na,oops,0.3\n")
        cat = tmp_path / "out.cat"
        code, _, err = run(capsys, "ingest", str(pts), str(cat))
        assert code == 2
        assert "line 3" in err

    def test_table_pricing(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.1,0.1", "b,0.9,0.9"])
        table = tmp_path / "prices.txt"
        table.write_text("a 3.50\nb 1.25\n")
        cat = tmp_path / "out.cat"
        code, _, _ = run(capsys, "ingest", str(pts), str(cat), "--theta", "3",
                         "--pricing", "table", "--price-table", str(table))
        assert code == 0
        market = load_catalog(cat)
        assert str(market.price("a")) == "3.50"

    def test_repeated_price_table_id_is_data_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.1,0.1", "b,0.9,0.9"])
        table = tmp_path / "prices.txt"
        table.write_text("a 3.50\nb 1.25\na 7\n")
        cat = tmp_path / "out.cat"
        code, _, err = run(capsys, "ingest", str(pts), str(cat), "--theta", "3",
                           "--pricing", "table", "--price-table", str(table))
        assert code == 2
        assert err.splitlines() == [f"error: {table}:3: repeated id 'a'"]
        assert not cat.exists()


class TestGen:
    def test_same_seed_byte_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            code, _, _ = run(capsys, "gen", str(p), "--datasets", "20",
                             "--points-per", "5", "--seed", "9")
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "gen", str(p1), "--datasets", "20", "--seed", "1")
        run(capsys, "gen", str(p2), "--datasets", "20", "--seed", "2")
        assert p1.read_bytes() != p2.read_bytes()

    def test_zero_spread_rasterizes_to_single_cells(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(capsys, "gen", str(pts), "--datasets", "10", "--points-per", "4",
            "--spread", "0", "--seed", "3")
        cat = tmp_path / "out.cat"
        code, _, _ = run(capsys, "ingest", str(pts), str(cat), "--theta", "6")
        assert code == 0
        market = load_catalog(cat)
        assert all(market.dataset(d).coverage == 1 for d in market.ids)

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", str(tmp_path / "x.csv"), "--datasets", "0")
        assert code == 1


@pytest.mark.parametrize("argv, flag", [
    (["ingest", "{pts}", "{out}", "--theta", "0"], "theta"),
    (["ingest", "{pts}", "{out}", "--delimiter", ""], "delimiter"),
    (["bench", "{pts}", "--out", "{out}", "--delimiter", ""], "delimiter"),
    (["gen", "{out}", "--spread", "nan"], "spread"),
    (["gen", "{out}", "--spread", "inf"], "spread"),
], ids=["ingest-theta-0", "ingest-empty-delimiter", "bench-empty-delimiter",
        "gen-nan-spread", "gen-inf-spread"])
def test_bad_ingest_gen_bench_flag_is_usage_error(tmp_path, capsys, argv, flag):
    pts = tmp_path / "pts.csv"
    write_points(pts, ["a,0.1,0.1", "b,0.9,0.9"])
    out = tmp_path / "out.txt"
    code, stdout, err = run(capsys, *(a.format(pts=pts, out=out) for a in argv))
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert flag in err
    assert not out.exists()


class TestSolve:
    def test_exact_dominates_dsa_and_exit_zero(self, tmp_path, capsys, example2_catalog):
        out_json = tmp_path / "report.json"
        code, out, _ = run(capsys, "solve", example2_catalog,
                           "--solvers", "exact,dsa", "--budget", "15", "--delta", "2",
                           "--json-out", str(out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        by_algo = {e["algorithm"]: e for e in payload["solutions"]}
        assert by_algo["exact"]["coverage"] >= by_algo["dsa"]["coverage"]
        assert all(e["verified"] for e in payload["solutions"])
        assert by_algo["exact"]["selected"] == ["d1", "d2", "d4"]

    def test_budget_ratio_zero_reports_below_minimum(self, tmp_path, capsys,
                                                     example2_catalog):
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", example2_catalog,
                         "--solvers", "dsa,dpsa,cmc-mg", "--budget-ratio", "0",
                         "--delta", "2", "--json-out", str(out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert all(e["status"] == "budget_below_minimum" for e in payload["solutions"])
        assert all(e["selected"] == [] for e in payload["solutions"])

    def test_unknown_solver_is_usage_error(self, capsys, example2_catalog):
        code, _, err = run(capsys, "solve", example2_catalog, "--solvers", "magic")
        assert code == 1
        assert "magic" in err

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "nan"), ("--delta", "-1"), ("--delta", "inf"),
        ("--budget-ratio", "-0.5"), ("--budget-ratio", "inf"), ("--budget-ratio", "nan"),
        ("--budget-ratio", "1e308"), ("--budget", "-5"),
    ])
    def test_bad_delta_or_ratio_is_usage_error(self, capsys, example2_catalog, flag, value):
        code, out, err = run(capsys, "solve", example2_catalog, "--solvers", "dsa", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag[2:] in err

    def test_budget_ratio_overrides_absolute(self, tmp_path, capsys, example2_catalog):
        out_json = tmp_path / "report.json"
        # ratio 1.0 of total (21) overrides the absolute 1
        code, _, _ = run(capsys, "solve", example2_catalog,
                         "--solvers", "exact", "--budget", "1", "--budget-ratio", "1.0",
                         "--delta", "2", "--json-out", str(out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["budget"] == "21.00"

    def test_last_budget_flag_wins_over_config(self, tmp_path, capsys, example2_catalog):
        """Both budget flags write one setting, and the file's lines come
        first, so a flag on the command line wins in either spelling."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("solvers = dsa\nbudget_ratio = 0.29\n")
        code, out, _ = run(capsys, "solve", example2_catalog, "--config", str(cfg),
                           "--budget", "5")
        assert code == 0
        assert "budget: 5.00\n" in out
        cfg.write_text("solvers = dsa\nbudget = 5\n")
        code, out, _ = run(capsys, "solve", example2_catalog, "--config", str(cfg),
                           "--budget-ratio", "0.29")
        assert code == 0
        assert "budget: 6.09\n" in out  # 0.29 of 21.00, floored to cents

    def test_dpsa_variants_agree_on_tree_shaped_graph(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        rows = [f"p{i},{3 * i}.5,0.5" for i in range(5)]
        write_points(pts, rows)
        cat = tmp_path / "path.cat"
        run(capsys, "ingest", str(pts), str(cat), "--theta", "4",
            "--bounds", "0", "0", "16", "16")
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", str(cat), "--solvers", "dpsa,dpsa-ba",
                         "--budget-ratio", "0.8", "--delta", "3",
                         "--json-out", str(out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        sols = {e["algorithm"]: e for e in payload["solutions"]}
        assert sols["dpsa"]["selected"] == sols["dpsa-ba"]["selected"]

    def test_config_file_supplies_defaults_flags_override(self, tmp_path, capsys,
                                                          example2_catalog):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 2\nsolvers = exact\nbudget = 15\n")
        out_json = tmp_path / "report.json"
        code, _, _ = run(capsys, "solve", example2_catalog, "--config", str(cfg),
                         "--json-out", str(out_json))
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert payload["delta"] == 2.0
        assert payload["solutions"][0]["algorithm"] == "exact"
        # now override the config's budget from the command line
        code, _, _ = run(capsys, "solve", example2_catalog, "--config", str(cfg),
                         "--budget", "2", "--json-out", str(out_json))
        payload = json.loads(out_json.read_text())
        assert payload["budget"] == "2.00"

    @pytest.mark.parametrize("line, key", [
        ("delta = abc", "delta"),   # a bad value
        ("detla = 5", "detla"),     # a misspelt key
        ("thetas = 7", "thetas"),   # a flag of no subcommand
        ("scales = 0.5", "scales"),  # a flag of bench, not of solve
        ("config = other.cfg", "config"),  # a config file naming another
    ])
    def test_bad_config_key_is_usage_error(self, tmp_path, capsys, example2_catalog,
                                           line, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"solvers = dsa\n{line}\n")
        code, out, err = run(capsys, "solve", example2_catalog, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and str(cfg) in err

    def test_config_is_read_with_sys_argv(self, tmp_path, capsys, monkeypatch,
                                          example2_catalog):
        """``main()`` without arguments reparses ``sys.argv`` with the file's flags."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 2\nsolvers = exact\nbudget = 15\n")
        out_json = tmp_path / "report.json"
        monkeypatch.setattr(sys, "argv", ["bmcc", "solve", example2_catalog, "--config",
                                          str(cfg), "--budget", "2",
                                          "--json-out", str(out_json)])
        assert main() == 0
        capsys.readouterr()
        payload = json.loads(out_json.read_text())
        assert (payload["delta"], payload["budget"]) == (2.0, "2.00")
        assert payload["solutions"][0]["algorithm"] == "exact"

    def test_budget_ratio_is_floored_exactly(self, tmp_path, capsys):
        """0.29 of a 1.00 catalog is 0.29; as floats, 0.29 * 100 floors to 28."""
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.5,0.5"])
        cat = tmp_path / "one.cat"
        run(capsys, "ingest", str(pts), str(cat), "--theta", "3")
        code, out, _ = run(capsys, "solve", str(cat), "--solvers", "dsa",
                           "--budget-ratio", "0.29")
        assert code == 0
        assert "budget: 0.29\n" in out
        bench = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", str(pts), "--solvers", "dsa", "--theta", "3",
                         "--budget-ratio", "0.29", "--out", str(bench))
        assert code == 0
        rows = [r.split("\t") for r in bench.read_text().splitlines()]
        row = dict(zip(rows[0], rows[1]))
        assert (row["budget_ratio"], row["budget"]) == ("0.29", "0.29")

    def test_exact_beyond_bitmask_oracle_limit(self, tmp_path, capsys):
        """The oracle keeps no table over all 2^n subsets, so a 40-dataset
        catalog under --oracle-cap 40 solves and verifies."""
        pts, cat, report = tmp_path / "pts.csv", tmp_path / "x.cat", tmp_path / "r.json"
        run(capsys, "gen", str(pts), "--datasets", "40", "--points-per", "5", "--seed", "3")
        run(capsys, "ingest", str(pts), str(cat), "--theta", "8")
        flags = ("--delta", "5", "--budget-ratio", "0.29")
        code, _, err = run(capsys, "solve", str(cat), "--solvers", "exact,dpsa",
                           "--oracle-cap", "40", "--json-out", str(report), *flags)
        assert code == 0, err
        exact, dpsa = json.loads(report.read_text())["solutions"]
        assert exact["algorithm"] == "exact"
        assert exact["coverage"] >= dpsa["coverage"]
        code, out, _ = run(capsys, "verify", str(cat), str(report), *flags)
        assert code == 0
        assert out.splitlines()[-1] == "verified: true"


class TestBuildGraph:
    def test_stats_and_adjacency_export(self, tmp_path, capsys, example2_catalog):
        adj = tmp_path / "graph.txt"
        code, out, _ = run(capsys, "build-graph", example2_catalog,
                           "--delta", "2", "--adjacency-out", str(adj))
        assert code == 0
        assert "nodes: 5" in out
        assert "edges: 3" in out
        assert "components: 2" in out
        back = read_adjacency(adj)
        assert back.adjacency["d2"] == ("d1", "d4")

    @pytest.mark.parametrize("command", ["build-graph", "solve"])
    def test_naive_flag_is_unknown(self, capsys, example2_catalog, command):
        code, out, err = run(capsys, command, example2_catalog, "--naive")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "--naive" in err

    @pytest.mark.parametrize("keep, bad, where", [
        (3, None, "line 4"),            # catalog cut after its third line
        (6, "datasets x", "line 6"),    # non-integer dataset count
    ], ids=["truncated", "non-integer-count"])
    def test_malformed_catalog_is_data_error(self, capsys, example2_catalog, keep, bad,
                                             where):
        with open(example2_catalog) as fh:
            lines = fh.read().splitlines()[:keep]
        if bad is not None:
            lines[-1] = bad
        with open(example2_catalog, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        code, _, err = run(capsys, "build-graph", example2_catalog, "--delta", "2")
        assert code == 2
        assert where in err
        assert len(err.splitlines()) == 1


def mask_timing(table: str) -> str:
    lines = table.splitlines()
    header = lines[0].split("\t")
    ms_cols = [i for i, name in enumerate(header) if name.endswith("_ms")]
    masked = [lines[0]]
    for line in lines[1:]:
        parts = line.split("\t")
        for i in ms_cols:
            parts[i] = "X"
        masked.append("\t".join(parts))
    return "\n".join(masked)


class TestBench:
    @pytest.fixture()
    def small_points(self, tmp_path, capsys):
        pts = tmp_path / "bench_pts.csv"
        run(capsys, "gen", str(pts), "--datasets", "60", "--points-per", "6",
            "--seed", "5")
        return str(pts)

    def test_single_point_matches_solve(self, tmp_path, capsys, small_points):
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa",
                         "--theta", "7", "--delta", "5", "--budget-ratio", "0.2",
                         "--out", str(out))
        assert code == 0
        rows = out.read_text().splitlines()
        header = rows[0].split("\t")
        row = dict(zip(header, rows[1].split("\t")))
        assert row["n_datasets"] == "60"
        assert row["scale"] == repr(1.0)

        cat = tmp_path / "bench.cat"
        run(capsys, "ingest", small_points, str(cat), "--theta", "7")
        report = tmp_path / "solve.json"
        code, _, _ = run(capsys, "solve", str(cat), "--solvers", "dsa",
                         "--delta", "5", "--budget-ratio", "0.2",
                         "--json-out", str(report))
        assert code == 0
        payload = json.loads(report.read_text())
        assert int(row["coverage"]) == payload["solutions"][0]["coverage"]

    @pytest.mark.parametrize("flag,value", [
        ("--delta", "2,nan"), ("--delta", "-3"), ("--theta", "7,32"),
        ("--budget-ratio", "0.1,inf"), ("--budget-ratio", "-0.2"),
        ("--budget", "-1"),
        # the plural spellings are gone: unknown flags, refused the same way
        ("--deltas", "2,nan"), ("--deltas", "-3"),
        ("--budget-ratios", "0.1,inf"), ("--budget-ratios", "-0.2"),
        ("--budgets", "-1"), ("--thetas", "7,8"),
    ])
    def test_bad_sweep_axis_is_usage_error(self, tmp_path, capsys, small_points, flag, value):
        code, _, err = run(capsys, "bench", small_points, "--solvers", "dsa", flag, value,
                           "--out", str(tmp_path / "bench.tsv"))
        assert code == 1
        assert err.startswith("error: ") and flag[2:] in err
        assert not (tmp_path / "bench.tsv").exists()

    def test_scale_axis_subsamples(self, tmp_path, capsys, small_points):
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa",
                         "--theta", "7", "--delta", "5", "--scales", "0.5,1.0",
                         "--out", str(out))
        assert code == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        header = rows[0]
        n_idx = header.index("n_datasets")
        assert [r[n_idx] for r in rows[1:]] == ["30", "60"]

    def test_delta_sweep_degree_monotone(self, tmp_path, capsys, small_points):
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa",
                         "--theta", "7", "--delta", "0,5,10,15,20",
                         "--out", str(out))
        assert code == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        idx = rows[0].index("avg_degree")
        degrees = [float(r[idx]) for r in rows[1:]]
        assert degrees == sorted(degrees)

    def test_theta_sweep_components_monotone(self, tmp_path, capsys, small_points):
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa",
                         "--delta", "10", "--theta", "7,8,9,10",
                         "--out", str(out))
        assert code == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        idx = rows[0].index("components")
        comps = [int(r[idx]) for r in rows[1:]]
        assert comps == sorted(comps)

    def test_seeded_runs_identical_after_masking_timing(self, tmp_path, capsys,
                                                        small_points):
        outs = []
        for name in ("b1.tsv", "b2.tsv"):
            out = tmp_path / name
            code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa,cmc-mg",
                             "--theta", "7", "--delta", "5,10", "--scales", "0.5,1.0",
                             "--seed", "4", "--out", str(out))
            assert code == 0
            outs.append(mask_timing(out.read_text()))
        assert outs[0] == outs[1]

    def test_command_line_axis_replaces_config_axis(self, tmp_path, capsys,
                                                    small_points):
        """A config file's ``delta = 5`` is one value of the delta axis; a
        ``--delta`` flag replaces it, and ``--budget`` replaces a file's ratio."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 5\nbudget_ratio = 0.29\n")
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--config", str(cfg),
                         "--solvers", "dsa", "--theta", "7", "--delta", "10",
                         "--budget", "5,10", "--out", str(out))
        assert code == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        cols = [rows[0].index(c) for c in ("delta", "budget_ratio", "budget")]
        assert [[r[i] for i in cols] for r in rows[1:]] == [
            ["10.0", "-", "5.00"], ["10.0", "-", "10.00"]]

    def test_sweep_builds_each_catalog_and_graph_once(self, tmp_path, capsys, monkeypatch,
                                                      small_points):
        """The budget axis changes neither catalog nor graph, and delta only
        the graph: 2 budgets x 2 deltas is one catalog and two graphs."""
        import bmcc.cli
        from bmcc.marketplace import Marketplace

        calls = {"market": 0, "graph": []}
        market_build = Marketplace.build.__func__
        graph_build = bmcc.cli.build_graph_indexed

        def counting_market(cls, *args, **kwargs):
            calls["market"] += 1
            return market_build(cls, *args, **kwargs)

        def counting_graph(market, delta, *args, **kwargs):
            calls["graph"].append(delta)
            return graph_build(market, delta, *args, **kwargs)

        monkeypatch.setattr(Marketplace, "build", classmethod(counting_market))
        monkeypatch.setattr(bmcc.cli, "build_graph_indexed", counting_graph)
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa,cmc-mg",
                         "--theta", "7", "--delta", "5,10", "--budget-ratio", "0.1,0.3",
                         "--out", str(out))
        assert code == 0
        assert calls == {"market": 1, "graph": [5.0, 10.0]}
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        cols = [rows[0].index(c) for c in ("solver", "budget_ratio", "delta")]
        assert [[r[i] for i in cols] for r in rows[1:]] == [
            [solver, ratio, delta] for ratio in ("0.1", "0.3") for delta in ("5.0", "10.0")
            for solver in ("dsa", "cmc-mg")]
        build_ms = rows[0].index("graph_build_ms")
        by_delta = {}
        for r in rows[1:]:
            by_delta.setdefault(r[cols[2]], set()).add(r[build_ms])
        assert all(len(times) == 1 for times in by_delta.values())

    def test_table_pricing_changes_budget(self, tmp_path, capsys, small_points):
        table = tmp_path / "prices.txt"
        with open(small_points) as fh:
            ids = sorted({line.split(",")[0] for line in fh.read().splitlines()[1:]})
        table.write_text("".join(f"{did} 2.00\n" for did in ids))
        out = tmp_path / "bench.tsv"
        code, _, _ = run(capsys, "bench", small_points, "--solvers", "dsa",
                         "--theta", "7", "--delta", "5", "--budget-ratio", "0.5",
                         "--pricing", "table", "--price-table", str(table),
                         "--out", str(out))
        assert code == 0
        rows = [r.split("\t") for r in out.read_text().splitlines()]
        row = dict(zip(rows[0], rows[1]))
        # 60 datasets at 2.00 each -> total 120.00, ratio 0.5 -> budget 60.00
        assert row["budget"] == "60.00"


class TestVerifyCommand:
    def test_good_report_verifies(self, tmp_path, capsys, example2_catalog):
        report = tmp_path / "report.json"
        run(capsys, "solve", example2_catalog, "--solvers", "exact,dsa",
            "--budget", "15", "--delta", "2", "--json-out", str(report))
        code, out, _ = run(capsys, "verify", example2_catalog, str(report),
                           "--budget", "15", "--delta", "2")
        assert code == 0
        assert "verified: true" in out

    def test_tampered_report_fails_with_exit_3(self, tmp_path, capsys,
                                               example2_catalog):
        report = tmp_path / "report.json"
        run(capsys, "solve", example2_catalog, "--solvers", "exact",
            "--budget", "15", "--delta", "2", "--json-out", str(report))
        payload = json.loads(report.read_text())
        payload["solutions"][0]["coverage"] += 5
        report.write_text(json.dumps(payload))
        code, out, _ = run(capsys, "verify", example2_catalog, str(report),
                           "--budget", "15", "--delta", "2")
        assert code == 3
        assert "coverage_matches=false" in out

    def test_unknown_id_in_report_is_data_error(self, tmp_path, capsys,
                                                example2_catalog):
        report = tmp_path / "report.json"
        run(capsys, "solve", example2_catalog, "--solvers", "exact",
            "--budget", "15", "--delta", "2", "--json-out", str(report))
        payload = json.loads(report.read_text())
        payload["solutions"][0]["selected"] = ["ghost"]
        report.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", example2_catalog, str(report),
                           "--budget", "15", "--delta", "2")
        assert code == 2
        assert "ghost" in err

    @pytest.mark.parametrize("text, where", [
        ("{not json", "not a JSON report"),
        ({"selected": None}, "no 'selected' key"),
        ({"coverage": None}, "no 'coverage' key"),
        ({"selected": "d1"}, "'selected' is not a list"),  # a string, not a list of ids
        ({"selected": ["d1", "d1"]}, "'selected' repeats an id"),
        ({"coverage": "many"}, "solution 0"),
        ({"total_price": "1.001"}, "solution 0"),
        ({"total_price": "Infinity"}, "solution 0"),
        ({"total_price": "1e400"}, "solution 0"),
        ({"coverage": float("inf")}, "solution 0"),  # written as the JSON token Infinity
        ({"coverage": 2.7}, "'coverage' is not a non-negative integer"),
        ({"coverage": 15.0}, "'coverage' is not a non-negative integer"),
        ({"coverage": True}, "'coverage' is not a non-negative integer"),
        ({"coverage": "15"}, "'coverage' is not a non-negative integer"),
        ({"coverage": -15}, "'coverage' is not a non-negative integer"),
    ], ids=["not-json", "no-selected", "no-coverage", "selected-string",
            "repeated-id", "bad-coverage", "sub-cent-price", "infinite-price",
            "huge-price", "infinite-coverage", "float-coverage",
            "integral-float-coverage", "bool-coverage", "string-coverage",
            "negative-coverage"])
    def test_malformed_report_is_data_error(self, tmp_path, capsys, example2_catalog,
                                            text, where):
        """``text`` is the whole file, or edits to the first entry of a real
        report (``None`` deletes the key)."""
        report = tmp_path / "report.json"
        if isinstance(text, dict):
            run(capsys, "solve", example2_catalog, "--solvers", "exact",
                "--budget", "15", "--delta", "2", "--json-out", str(report))
            payload = json.loads(report.read_text())
            entry = payload["solutions"][0]
            for key, value in text.items():
                if value is None:
                    del entry[key]
                else:
                    entry[key] = value
            text = json.dumps(payload)
        report.write_text(text)
        code, _, err = run(capsys, "verify", example2_catalog, str(report),
                           "--budget", "15", "--delta", "2")
        assert code == 2
        assert len(err.splitlines()) == 1
        assert str(report) in err and where in err
        assert "unknown dataset id" not in err


class TestBadInputFiles:
    """Non-finite amounts and files that are not UTF-8 end in one ``error:``
    line and exit 2, never a traceback."""

    def test_infinite_budget_is_data_error(self, capsys, example2_catalog):
        code, _, err = run(capsys, "solve", example2_catalog, "--budget", "inf")
        assert code == 2
        assert err == "error: not a finite amount: 'inf'\n"

    def test_infinite_table_price_is_data_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["d00,0.1,0.1", "d01,0.9,0.9"])
        table = tmp_path / "prices.txt"
        table.write_text("d00 inf\nd01 1.25\n")
        code, _, err = run(capsys, "ingest", str(pts), str(tmp_path / "out.cat"),
                           "--pricing", "table", "--price-table", str(table))
        assert code == 2
        assert err == "error: not a finite amount: 'inf'\n"

    def test_infinite_point_is_data_error(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        write_points(pts, ["d0,0.1,0.2", "d9,inf,0.5"])
        code, _, err = run(capsys, "ingest", str(pts), str(tmp_path / "out.cat"))
        assert code == 2
        assert "line 3" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("boundary", ["points", "price-table", "catalog", "config",
                                          "report"])
    def test_file_not_utf8_is_data_error(self, tmp_path, capsys, example2_catalog,
                                         boundary):
        bad = tmp_path / "bad.txt"
        pts = tmp_path / "pts.csv"
        write_points(pts, ["a,0.1,0.1", "b,0.9,0.9"])
        texts = {"points": b"dataset_id,x,y\na,0.1,0.2\xff\n", "price-table": b"a 1\xff\n",
                 "catalog": b"CBCAT 1\ntheta 3\xff\n", "config": b"delta = 2\xff\n",
                 "report": b'{"solutions": ["\xff"]}'}
        bad.write_bytes(texts[boundary])
        argv = {
            "points": ["ingest", str(bad), str(tmp_path / "out.cat")],
            "price-table": ["ingest", str(pts), str(tmp_path / "out.cat"),
                            "--pricing", "table", "--price-table", str(bad)],
            "catalog": ["solve", str(bad)],
            "config": ["solve", example2_catalog, "--config", str(bad)],
            "report": ["verify", example2_catalog, str(bad)],
        }[boundary]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert f"{bad}: not a UTF-8 text file" in err
