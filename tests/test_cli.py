import json
from pathlib import Path

import pytest

from stochroute.cli import SUITE_GRID, main
from stochroute.instance import load_instance

TINY_TSP = """NAME: tiny
TYPE: TSP
DIMENSION: 5
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 40.0 0.0
3 40.0 40.0
4 0.0 40.0
5 20.0 20.0
EOF
"""


@pytest.fixture
def tsp_file(tmp_path):
    p = tmp_path / "tiny.tsp"
    p.write_text(TINY_TSP)
    return p


def gen(tsp_file, tmp_path, *extra):
    rc = main(["generate", str(tsp_file), "--out", str(tmp_path),
               "--scenarios", "3", "--seed", "7", *extra])
    assert rc == 0


def test_suite_grid_layout():
    assert SUITE_GRID[0] == (1, 0)
    assert len(SUITE_GRID) == 13
    assert all(f in (1, 3, 5) for n, f in SUITE_GRID[1:])
    assert sorted({n for n, _ in SUITE_GRID[1:]}) == [2, 3, 4, 5]


def test_generate_writes_instance(tsp_file, tmp_path, capsys):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    path = tmp_path / "tiny-2-1.json"
    assert path.exists()
    assert str(path) in capsys.readouterr().out
    inst = load_instance(path.read_text())
    assert inst.num_targets == 5
    assert inst.num_vehicles == 2
    assert inst.scenarios.num_scenarios == 3


def test_generate_is_deterministic(tsp_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    gen(tsp_file, out_a, "--n", "2", "--f", "1")
    gen(tsp_file, out_b, "--n", "2", "--f", "1")
    assert (out_a / "tiny-2-1.json").read_text() == \
        (out_b / "tiny-2-1.json").read_text()


def test_generate_flags_are_honored(tsp_file, tmp_path):
    gen(tsp_file, tmp_path, "--n", "1", "--f", "0",
        "--service-range", "2:4", "--gamma", "77", "--tau-bar-offset", "0:0")
    inst = load_instance((tmp_path / "tiny-1-0.json").read_text())
    assert inst.vehicles[0].gamma == 77.0
    assert float(inst.scenarios.tau.min()) >= 2.0
    assert float(inst.scenarios.tau.max()) <= 4.0
    # zero offset: caps equal scenario means exactly
    import numpy as np
    assert np.allclose(inst.tau_bar, inst.scenarios.expected_tau())


def test_solve_writes_record_and_exit_code(tsp_file, tmp_path, capsys):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    rc = main(["solve", str(tmp_path / "tiny-2-1.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads(
        (tmp_path / "tiny-2-1.stochastic.solution.json").read_text())
    assert record["status"] == "optimal"
    assert record["gap"] <= 1e-6
    assert record["objective"] == pytest.approx(
        record["first_stage_cost"] + record["expected_penalty"])
    assert len(record["tours"]) == 2
    out = capsys.readouterr().out
    assert "objective" in out


def test_solve_evp_mode(tsp_file, tmp_path):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    rc = main(["solve", str(tmp_path / "tiny-2-1.json"), "--mode", "evp",
               "--out", str(tmp_path)])
    assert rc == 0
    record = json.loads((tmp_path / "tiny-2-1.evp.solution.json").read_text())
    assert record["mode"] == "evp"


def test_solve_time_limit_exit_code(tsp_file, tmp_path):
    gen(tsp_file, tmp_path, "--n", "3", "--f", "1")
    rc = main(["solve", str(tmp_path / "tiny-3-1.json"),
               "--time-limit", "0.001", "--out", str(tmp_path)])
    record = json.loads(
        (tmp_path / "tiny-3-1.stochastic.solution.json").read_text())
    if record["status"] == "time_limit":
        assert rc == 2
    else:
        assert rc == 0


def test_solve_zero_time_limit_writes_strict_json(tsp_file, tmp_path, capsys):
    # no node closes, so bound and gap are not finite; they must be null
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    capsys.readouterr()
    rc = main(["solve", str(tmp_path / "tiny-2-1.json"),
               "--time-limit", "0", "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(
        (tmp_path / "tiny-2-1.stochastic.solution.json").read_text(),
        parse_constant=reject)
    assert record["status"] == "time_limit"
    assert record["bound"] is None and record["gap"] is None
    printed = capsys.readouterr().out
    summary = json.loads(printed[:printed.rindex("}") + 1],
                         parse_constant=reject)
    assert summary["gap"] is None


def test_solve_lp_failure_exit_code(tsp_file, tmp_path, monkeypatch):
    from stochroute import lp
    real = lp.linprog
    monkeypatch.setattr(
        lp, "linprog",
        lambda highs: real(highs)._replace(status="numerical_error"))
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    rc = main(["solve", str(tmp_path / "tiny-2-1.json"),
               "--out", str(tmp_path)])
    record = json.loads(
        (tmp_path / "tiny-2-1.stochastic.solution.json").read_text())
    assert rc == 2
    assert record["status"] == "numerical_error"
    assert record["lp_failures"] == 2


def test_vss_outputs(tsp_file, tmp_path, capsys):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    rc = main(["vss", str(tmp_path / "tiny-2-1.json"), "--out", str(tmp_path)])
    assert rc == 0
    row = json.loads((tmp_path / "tiny-2-1.vss.json").read_text())
    assert row["vss"] == pytest.approx(row["d_star"] - row["s_star"])
    assert row["vss"] >= -1e-6
    csv = (tmp_path / "vss_table.csv").read_text().splitlines()
    assert csv[0] == "instance,D_star,S_star,VSS"
    assert csv[1].startswith("tiny-2-1,")
    md = (tmp_path / "vss_table.md").read_text()
    assert md.startswith("| instance | D* | S* | VSS |")
    # a second run appends a row rather than clobbering the table
    main(["vss", str(tmp_path / "tiny-2-1.json"), "--out", str(tmp_path)])
    assert len((tmp_path / "vss_table.csv").read_text().splitlines()) == 3


def test_plot_roundtrip(tsp_file, tmp_path):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    main(["solve", str(tmp_path / "tiny-2-1.json"), "--out", str(tmp_path)])
    rc = main(["plot", str(tmp_path / "tiny-2-1.json"),
               str(tmp_path / "tiny-2-1.stochastic.solution.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    svg = (tmp_path / "tiny-2-1.stochastic.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg


def test_plot_rejects_mismatched_pair(tsp_file, tmp_path, capsys):
    gen(tsp_file, tmp_path, "--n", "2", "--f", "1")
    gen(tsp_file, tmp_path, "--n", "3", "--f", "1")
    main(["solve", str(tmp_path / "tiny-2-1.json"), "--out", str(tmp_path)])
    rc = main(["plot", str(tmp_path / "tiny-3-1.json"),
               str(tmp_path / "tiny-2-1.stochastic.solution.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "tiny-2-1" in capsys.readouterr().err


def test_generate_suite_writes_thirteen_files(tmp_path):
    # the 5x5 grid cell reserves 25 required targets, so the suite needs a
    # town with at least 25 of them
    coords = [(i % 5 * 10.0, i // 5 * 10.0) for i in range(25)]
    lines = [f"{i + 1} {x} {y}" for i, (x, y) in enumerate(coords)]
    tsp = tmp_path / "tiny.tsp"
    tsp.write_text("NAME: tiny\nTYPE: TSP\nDIMENSION: 25\n"
                   "EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
                   + "\n".join(lines) + "\nEOF\n")
    rc = main(["generate", str(tsp), "--suite", "--out", str(tmp_path),
               "--scenarios", "2", "--seed", "1"])
    assert rc == 0
    files = sorted(p.name for p in tmp_path.glob("tiny-*.json"))
    assert len(files) == 13
    assert "tiny-1-0.json" in files and "tiny-5-5.json" in files


def test_error_paths(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err != ""
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["solve", str(bad)]) == 1
