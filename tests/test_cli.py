"""Command-line interface: exit codes, output formats, end-to-end flows."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import diffgraph
from diffgraph import Dataset, cli
from diffgraph.cli import main
from helpers import DG_1H, DG_1M

GOLDEN = pathlib.Path(__file__).parent / "golden" / "figures_table.txt"


@pytest.fixture()
def graph_1h(tmp_path):
    path = tmp_path / "d1h.txt"
    path.write_text(DG_1H.to_edge_list())
    return str(path)


@pytest.fixture()
def graph_1m(tmp_path):
    path = tmp_path / "d1m.txt"
    path.write_text(DG_1M.to_edge_list())
    return str(path)


def test_check_total_identifiable(graph_1h, capsys):
    code = main(["check-total", "--graph", graph_1h,
                 "--exposure", "X", "--outcome", "Y", "--shared-order"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition A.2" in out
    assert "{W1}" in out


def test_check_total_json(graph_1h, capsys):
    code = main(["check-total", "--graph", graph_1h, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "kind": "AdjustmentIdentifiable",
        "condition": "A.2",
        "formula": "P(Y|do(X)) = sum_{W1} P(Y|X,W1) P(W1)",
        "adjustment_set": ["W1"],
    }


def test_main_reuses_one_parser_across_calls(graph_1h, capsys, monkeypatch):
    """Calls in one process, a usage error among them, share one parser,
    and no flag of one call leaks into the next."""
    builds, build_parser = [], cli.build_parser

    def build():
        builds.append(1)
        return build_parser()
    monkeypatch.setattr(cli, "build_parser", build)
    cli._parser.cache_clear()
    query = ["--graph", graph_1h, "--exposure", "X", "--outcome", "Y"]
    total = ["check-total", *query, "--shared-order", "--json"]
    assert main(total) == 0
    first = capsys.readouterr().out
    assert json.loads(first)["adjustment_set"] == ["W1"]
    with pytest.raises(SystemExit) as exc_info:
        main(["check-total", "--json"])
    assert exc_info.value.code == 1
    assert "required" in capsys.readouterr().err
    assert main(["check-direct", *query, "--shared-order"]) == 2
    assert "not identifiable" in capsys.readouterr().out
    assert main(total) == 0
    assert capsys.readouterr().out == first
    assert builds == [1]


def test_check_direct_not_identifiable_exits_2(graph_1h, capsys):
    code = main(["check-direct", "--graph", graph_1h,
                 "--exposure", "X", "--outcome", "Y", "--shared-order"])
    assert code == 2
    assert "not identifiable" in capsys.readouterr().out


def test_check_rejects_cyclic_graph_under_shared_order(tmp_path, capsys):
    path = tmp_path / "cyc.txt"
    path.write_text("X -> Y\nY -> X\n")
    code = main(["check-total", "--graph", str(path),
                 "--exposure", "X", "--outcome", "Y", "--shared-order"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_missing_graph_file_exits_1(capsys):
    code = main(["check-total", "--graph", "/nonexistent/g.txt",
                 "--exposure", "X", "--outcome", "Y"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_parse_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("A -> B -> C\n")
    code = main(["check-total", "--graph", str(path),
                 "--exposure", "A", "--outcome", "B"])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["check-total"])
    assert exc_info.value.code == 1
    with pytest.raises(SystemExit) as exc_info:
        main(["no-such-command"])
    assert exc_info.value.code == 1


def test_oracle_direct_prints_witness(graph_1h, capsys):
    code = main(["oracle-direct", "--graph", graph_1h,
                 "--exposure", "X", "--outcome", "Y", "--shared-order"])
    out = capsys.readouterr().out
    assert code == 2
    assert "witness model 1:" in out
    assert "witness model 2:" in out


def test_oracle_total_json_schema(graph_1m, capsys):
    code = main(["oracle-total", "--graph", graph_1m, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--json"])
    assert code == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "NotIdentifiable"
    assert len(doc["witness"]) == 2
    assert all(isinstance(w, str) and "->" in w for w in doc["witness"])


def test_oracle_vertex_cap_exits_1(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("".join(f"node V{i}\n" for i in range(6)))
    code = main(["oracle-total", "--graph", str(path),
                 "--exposure", "V0", "--outcome", "V1"])
    assert code == 1
    assert "capped" in capsys.readouterr().err


def test_oracle_text_for_null_and_adjustable_verdicts(graph_1h, capsys):
    base = ["oracle-total", "--graph", graph_1h, "--shared-order"]
    assert main(base + ["--exposure", "Y", "--outcome", "X"]) == 0
    assert capsys.readouterr().out == (
        "oracle (shared-order mode), total effect of Y on X: null effect "
        "in every compatible model; P(X|do(Y)) = P(X)\n")
    assert main(base + ["--exposure", "X", "--outcome", "Y"]) == 0
    assert capsys.readouterr().out == (
        "oracle (shared-order mode), total effect of X on Y: identifiable; "
        "{W1} is admissible in every compatible model; "
        "P(Y|do(X)) = sum_{W1} P(Y|X,W1) P(W1)\n")


def test_oracle_query_errors_exit_1(graph_1h, capsys):
    for command in ("oracle-total", "oracle-direct"):
        for x, y, message in (("X", "Z", "unknown vertex 'Z'"),
                              ("X", "X", "must be distinct")):
            assert main([command, "--graph", graph_1h, "--exposure", x,
                         "--outcome", y]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert message in captured.err
    assert captured.err == "error: exposure and outcome must be distinct\n"


def _write_discrete(path, seed, n=8000):
    rng = np.random.default_rng(seed)
    w1 = (rng.random(n) < 0.5).astype(float)
    x = (rng.random(n) < np.where(w1 == 1, 0.8, 0.3)).astype(float)
    w2 = (rng.random(n) < np.where(x == 1, 0.6, 0.4)).astype(float)
    y = (rng.random(n) < np.where(x == 1, 0.7, 0.2)).astype(float)
    Dataset(["W1", "X", "W2", "Y"], np.column_stack([w1, x, w2, y]),
            "discrete").to_csv(path)


def test_estimate_total_adjustment(graph_1h, tmp_path, capsys):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 0)
    code = main(["estimate-total", "--graph", graph_1h, "--exposure", "X",
                 "--outcome", "Y", "--shared-order",
                 "--data1", str(csv), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["condition"] == "A.2"
    probs = doc["estimate"]["probabilities"]
    assert len(probs) == 2
    assert probs[1][1] == pytest.approx(0.7, abs=0.03)


def test_estimate_total_null_effect_uses_marginal(graph_1h, tmp_path,
                                                  capsys):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 1)
    code = main(["estimate-total", "--graph", graph_1h, "--exposure", "Y",
                 "--outcome", "X", "--shared-order",
                 "--data1", str(csv), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["condition"] == "A.1"
    probs = np.asarray(doc["estimate"]["probabilities"])
    data = Dataset.from_csv(csv, "discrete")
    marginal = np.bincount(data.column("X"), minlength=2) / len(data)
    assert np.array_equal(probs[0], marginal)
    assert np.array_equal(probs[1], marginal)


@pytest.mark.parametrize("exposure,outcome,condition",
                         [("X", "Y", "A.2"), ("Y", "X", "A.1")])
def test_total_json_carries_the_aligned_code_grid(tmp_path, capsys, exposure,
                                                  outcome, condition):
    # Y takes codes 0..3 in population 1 but only 0..1 in population 2
    graph, csv1, csv2 = (tmp_path / name for name in ("d.txt", "1.csv",
                                                      "2.csv"))
    graph.write_text("X -> Y\n")
    csv1.write_text("X,Y\n0,0\n0,3\n1,2\n1,1\n0,1\n")
    csv2.write_text("X,Y\n0,0\n1,1\n1,0\n0,1\n")
    grid = {"X": [0, 1], "Y": [0, 1, 2, 3]}
    keys = {"exposure_values": grid[exposure],
            "outcome_values": grid[outcome]}
    query = ["--graph", str(graph), "--exposure", exposure, "--outcome",
             outcome, "--shared-order", "--data1", str(csv1), "--json"]
    assert main(["estimate-total"] + query) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["condition"] == condition
    assert {k: doc["estimate"][k] for k in keys} == keys
    assert main(["change", "--discrete", "--data2", str(csv2)] + query) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    for part in ("population1_value", "population2_value", "change"):
        assert {k: report[part][k] for k in keys} == keys, part
        assert all(type(v) is int for k in keys for v in report[part][k])


def test_total_null_effect_rejects_a_nonpositive_laplace(graph_1h, tmp_path,
                                                        capsys):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 1, n=200)
    query = ["--graph", graph_1h, "--exposure", "Y", "--outcome", "X",
             "--shared-order", "--laplace", "-1"]
    for argv in (["estimate-total", "--data1", str(csv)],
                 ["change", "--discrete", "--data1", str(csv),
                  "--data2", str(csv)]):
        assert main(argv + query) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "laplace smoothing must be positive" in captured.err


def test_total_effects_reject_a_non_finite_laplace(tmp_path, capsys):
    graph = tmp_path / "chain.txt"
    graph.write_text("W1 -> X\nX -> Y\n")
    csv = tmp_path / "d.csv"
    csv.write_text("W1,X,Y\n0,0,1\n1,1,0\n0,1,1\n1,0,0\n")
    for laplace in ("nan", "inf"):
        assert main(["estimate-total", "--graph", str(graph), "--exposure",
                     "X", "--outcome", "Y", "--data1", str(csv),
                     "--shared-order", "--laplace", laplace]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "laplace smoothing must be positive and finite" \
            in captured.err


def test_change_not_identifiable_exits_2(graph_1m, tmp_path, capsys):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 2, n=200)
    code = main(["change", "--graph", graph_1m, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--discrete",
                 "--data1", str(csv), "--data2", str(csv)])
    assert code == 2
    assert capsys.readouterr().out == (
        "total effect of X on Y: not identifiable from the difference graph "
        "alone\n")


def test_change_names_a_missing_exposure_column(graph_1h, tmp_path, capsys):
    csv = tmp_path / "d.csv"
    Dataset(["W1", "W2", "Y"], np.zeros((4, 3)), "discrete").to_csv(csv)
    code = main(["change", "--graph", graph_1h, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--discrete",
                 "--data1", str(csv), "--data2", str(csv)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown variable 'X'\n"


def test_a_discrete_code_above_two_to_the_53_exits_1(tmp_path, capsys):
    graph, csv = tmp_path / "d.txt", tmp_path / "big.csv"
    graph.write_text("X -> Y\n")
    csv.write_text("X,Y\n0,1e19\n1,0\n0,0\n1,1\n")
    assert main(["estimate-total", "--graph", str(graph), "--exposure", "X",
                 "--outcome", "Y", "--shared-order",
                 "--data1", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {csv}: discrete codes must be below "
                            "2**53, below which a float holds every integer "
                            "exactly, got 1e+19 at row 1, column 'Y'\n")


def test_a_count_grid_above_two_to_the_24_cells_exits_1(tmp_path, capsys):
    graph, csv = tmp_path / "d.txt", tmp_path / "wide.csv"
    graph.write_text("X -> Y\n")
    csv.write_text("X,Y\n0,3000000000\n1,0\n0,1\n1,1\n")
    assert main(["estimate-total", "--graph", str(graph), "--exposure", "X",
                 "--outcome", "Y", "--shared-order",
                 "--data1", str(csv)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: counting needs 1 strata x 2 x 3000000001 levels, more than "
        "2**24 cells: column 'Y' has codes up to 3000000000 (relabel sparse "
        "codes as 0, 1, 2, ...)\n")


def test_byte_order_marks_are_not_part_of_names(tmp_path, capsys):
    graph = tmp_path / "bom.txt"
    graph.write_text("\ufeff" + DG_1H.to_edge_list(), encoding="utf-8")
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 2, n=200)
    csv.write_text("\ufeff" + csv.read_text(encoding="utf-8"),
                   encoding="utf-8")
    code = main(["change", "--graph", str(graph), "--exposure", "W1",
                 "--outcome", "Y", "--shared-order", "--discrete",
                 "--data1", str(csv), "--data2", str(csv)])
    assert code == 0
    assert "total causal change for W1 -> Y" in capsys.readouterr().out


def test_estimate_total_not_identifiable_exits_2(graph_1m, tmp_path, capsys):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 2)
    code = main(["estimate-total", "--graph", graph_1m, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--data1", str(csv)])
    assert code == 2


def _assert_usage_error(argv, capsys, message):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: diffgraph ")
    assert captured.err.endswith(message + "\n")


def test_estimate_total_rejects_continuous_flag(graph_1h, tmp_path, capsys):
    """The effect fixes the data kind, so estimate-* has no kind flags."""
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 3)
    for flag in ("--continuous", "--discrete"):
        _assert_usage_error(
            ["estimate-total", "--graph", graph_1h, "--exposure", "X",
             "--outcome", "Y", "--shared-order", "--data1", str(csv), flag],
            capsys, f"error: unrecognized arguments: {flag}")


def _write_continuous(path, seed, alpha, n=20_000):
    # gallery 1m: W1 -> X, W2 -> Y, X -> Y with direct coefficient alpha
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal(n)
    w2 = rng.standard_normal(n)
    x = 0.8 * w1 + rng.standard_normal(n)
    y = alpha * x + 1.2 * w2 + rng.standard_normal(n)
    Dataset(["W1", "X", "W2", "Y"], np.column_stack([w1, x, w2, y]),
            "continuous").to_csv(path)


def test_estimate_direct_recovers_the_coefficient(graph_1m, tmp_path,
                                                  capsys):
    csv = tmp_path / "c.csv"
    _write_continuous(csv, 5, alpha=1.3)
    argv = ["estimate-direct", "--graph", graph_1m, "--exposure", "X",
            "--outcome", "Y", "--shared-order", "--data1", str(csv)]
    assert main(argv + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"]["condition"] == "C.2"
    assert doc["verdict"]["adjustment_set"] == ["W1", "W2"]
    assert doc["estimate"] == pytest.approx(1.3, abs=0.05)
    assert main(argv) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"alpha(X->Y) estimate: {doc['estimate']:.6f}"


def test_estimate_direct_reads_the_data_for_a_null_effect(tmp_path,
                                                          capsys):
    path = tmp_path / "g.txt"
    path.write_text("Y -> X\n")
    code = main(["estimate-direct", "--graph", str(path), "--exposure", "X",
                 "--outcome", "Y", "--shared-order",
                 "--data1", str(tmp_path / "missing.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_estimate_direct_rejects_discrete_flag(graph_1m, tmp_path, capsys):
    csv = tmp_path / "c.csv"
    _write_continuous(csv, 6, alpha=0.5, n=100)
    for flag in ("--discrete", "--continuous"):
        _assert_usage_error(
            ["estimate-direct", "--graph", graph_1m, "--exposure", "X",
             "--outcome", "Y", "--shared-order", "--data1", str(csv), flag],
            capsys, f"error: unrecognized arguments: {flag}")


def test_estimate_direct_not_identifiable_exits_2(graph_1h, tmp_path,
                                                  capsys):
    csv = tmp_path / "c.csv"
    _write_continuous(csv, 7, alpha=0.5, n=100)
    code = main(["estimate-direct", "--graph", graph_1h, "--exposure", "X",
                 "--outcome", "Y", "--shared-order", "--data1", str(csv)])
    assert code == 2
    assert "not identifiable" in capsys.readouterr().out


def test_change_requires_a_kind_flag(graph_1m, tmp_path):
    csv = tmp_path / "d.csv"
    _write_discrete(csv, 4)
    with pytest.raises(SystemExit) as exc_info:
        main(["change", "--graph", graph_1m, "--exposure", "X",
              "--outcome", "Y", "--shared-order",
              "--data1", str(csv), "--data2", str(csv)])
    assert exc_info.value.code == 1


def test_simulate_then_change_end_to_end(graph_1m, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--graph", graph_1m, "--shared-order",
                 "--seed", "7", "--n", "40000", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["datasets"] == {"data1": "data1.csv",
                                    "data2": "data2.csv",
                                    "seed1": 8, "seed2": 9}
    alpha1 = manifest["scm1"]["coefficients"].get("X->Y", 0.0)
    alpha2 = manifest["scm2"]["coefficients"].get("X->Y", 0.0)

    code = main(["change", "--graph", graph_1m, "--exposure", "X",
                 "--outcome", "Y", "--shared-order",
                 "--data1", str(out / manifest["datasets"]["data1"]),
                 "--data2", str(out / manifest["datasets"]["data2"]),
                 "--continuous", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["quantity"] == "direct"
    assert doc["report"]["change"] == pytest.approx(alpha1 - alpha2,
                                                    abs=0.05)


def test_change_continuous_rejects_laplace(graph_1m, tmp_path, capsys):
    csv = tmp_path / "c.csv"
    _write_continuous(csv, 8, alpha=0.5, n=100)
    for laplace in ("-1", "1"):
        code = main(["change", "--graph", graph_1m, "--exposure", "X",
                     "--outcome", "Y", "--shared-order", "--continuous",
                     "--data1", str(csv), "--data2", str(csv),
                     "--laplace", laplace])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: laplace smoothing applies to total "
                                "effects only\n")


def test_simulate_is_reproducible(graph_1h, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--graph", graph_1h, "--shared-order",
                     "--seed", "3", "--n", "50", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (a / "data1.csv").read_text() == (b / "data1.csv").read_text()
    assert (a / "data2.csv").read_text() == (b / "data2.csv").read_text()
    assert ((a / "manifest.json").read_bytes()
            == (b / "manifest.json").read_bytes())


def test_simulate_rejects_a_negative_seed_as_usage(graph_1h, tmp_path,
                                                  capsys):
    out = tmp_path / "sim"
    for seed in ("-1", "1.5"):
        _assert_usage_error(
            ["simulate", "--graph", graph_1h, "--seed", seed,
             "--out", str(out)], capsys,
            f"diffgraph simulate: error: argument --seed: expected a "
            f"non-negative integer, got '{seed}'")
    assert not out.exists()


def test_simulate_rejects_a_nonpositive_row_count_as_usage(graph_1h,
                                                          tmp_path, capsys):
    out = tmp_path / "sim"
    for n, argv in (("0", ["--n", "0"]), ("-3", ["--n=-3"]),
                    ("1.5", ["--n", "1.5"])):
        _assert_usage_error(
            ["simulate", "--graph", graph_1h, *argv, "--out", str(out)],
            capsys,
            f"diffgraph simulate: error: argument --n: expected a positive "
            f"integer, got '{n}'")
    assert not out.exists()


def test_simulate_rejects_a_graph_with_no_vertices(tmp_path, capsys):
    graph, out = tmp_path / "empty.txt", tmp_path / "sim"
    graph.write_text("# a comment, no edge and no vertex\n")
    assert main(["simulate", "--graph", str(graph), "--n", "5",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least one variable\n"
    assert not out.exists()


def test_simulate_json_records_unit_gaussian_noise(graph_1h, tmp_path,
                                                   capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--graph", graph_1h, "--shared-order", "--seed",
                 "5", "--n", "20", "--out", str(out), "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert printed == manifest
    # the file names are relative to --out, where the manifest sits
    assert printed["datasets"] == {"data1": "data1.csv",
                                   "data2": "data2.csv",
                                   "seed1": 6, "seed2": 7}
    for scm in ("scm1", "scm2"):
        doc = manifest[scm]
        assert doc["noise_family"] == "gaussian"
        assert list(doc["noise_scales"]) == doc["vertices"]
        assert all(type(s) is float and s == 1.0
                   for s in doc["noise_scales"].values())


def test_figures_matches_golden_bytes(capsys):
    assert main(["figures"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def _run_module(*argv):
    """``python -m *argv`` in a child that imports the package this test
    imported, also when pytest put it on sys.path without PYTHONPATH."""
    home = str(pathlib.Path(diffgraph.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [home, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))


def test_installed_script_runs():
    proc = _run_module("diffgraph.cli", "figures")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_text()


def test_python_dash_m_diffgraph_runs_the_cli():
    proc = _run_module("diffgraph", "figures")
    assert proc.returncode == 0
    assert proc.stdout == GOLDEN.read_text()
    proc = _run_module("diffgraph", "check-total")
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: diffgraph")
