import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from conftest import counting, functions_of, grid_concurrences, reduced_sizes, x_concurrence

from entloc import cli, fock_oracle, measures, protocol
from entloc.params import CouplingConfig, Stage

ROOT = Path(__file__).resolve().parent.parent
MEASURES = functions_of(measures)
SCHEMA_DIR = ROOT / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / name).read_text(encoding="utf-8"))


def run_cli(*argv):
    # the child imports the package from src/, so an uninstalled checkout works
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "entloc", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestSweep:
    def test_transmittivity_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(
            ["sweep", "--variable", "T", "--min", "0", "--max", "1",
             "--steps", "101", "--p", "0", "--eps", "0.15", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == list(cli.SWEEP_HEADER)
        assert len(rows) == 101
        threshold = np.sqrt(2.0) - 1.0
        for row in rows:
            t, stage1 = row[0], row[1]
            if t <= threshold:
                assert stage1 == 0.0
            else:
                assert stage1 > 0.0
        assert all(len(row) == 5 for row in rows)

    def test_endpoint_rows(self, tmp_path):
        out = tmp_path / "ends.csv"
        assert cli.main(["sweep", "--variable", "T", "--steps", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        t0, t1 = rows
        assert t0[0] == 0.0 and t0[1] == 0.0 and t0[2] == 0.0 and t0[4] == 0.0
        assert np.isnan(t0[3])  # schedule blocks everything at T = 0
        np.testing.assert_allclose(t1, [1.0] * 5, atol=1e-12)

    def test_eps_sweep_monotone_toward_limit(self, tmp_path):
        out = tmp_path / "eps.csv"
        code = cli.main(
            ["sweep", "--variable", "eps", "--min", "0.001", "--max", "1",
             "--steps", "50", "--T", "0.4", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        filtered = [row[3] for row in rows]
        assert np.all(np.diff(filtered) <= 1e-12)  # weaker filtering, lower concurrence
        assert abs(filtered[0] - 0.4 / np.sqrt(0.52)) < 3e-4

    def test_overlap_sweep_runs(self, tmp_path):
        out = tmp_path / "p.csv"
        code = cli.main(
            ["sweep", "--variable", "p", "--min", "0", "--max", "1",
             "--steps", "5", "--T", "0.3", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert len(rows) == 5
        # at T = 0.3 the coupled pair is separable for every overlap
        assert all(row[1] == 0.0 for row in rows)

    def test_deterministic_output(self, tmp_path):
        args = ["sweep", "--variable", "T", "--steps", "11"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_lf_line_endings_and_single_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--steps", "3", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").count("variable") == 1

    def test_limit_near_balance_at_full_overlap(self, tmp_path):
        # the verbatim radicand rounds to 0 within a few ulp of T = 1/2 at p = 1
        out = tmp_path / "balance.csv"
        argv = ["sweep", "--variable", "T", "--min", "0.4999999999999999",
                "--max", "0.5000000000000002", "--steps", "4", "--p", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*argv, "--out", str(out)]) == 0
        limits = [line.split(",")[-1] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        expected = ["0" if t == 0.5 else "1"  # 0 only at T = 1/2 itself, where the form is 0/0
                    for t in np.linspace(0.4999999999999999, 0.5000000000000002, 4).tolist()]
        assert limits == expected and expected.count("1") == 3

    def test_usage_errors(self, tmp_path):
        assert cli.main(["sweep", "--steps", "1", "--out", "-"]) == 2
        assert cli.main(["sweep", "--min", "0.8", "--max", "0.2", "--out", "-"]) == 2
        assert cli.main(["sweep", "--min", "-0.5", "--max", "0.5", "--out", "-"]) == 2
        assert cli.main(["sweep", "--T", "1.5", "--out", "-"]) == 2


def per_point_stage_concurrences(transmittivity, overlap, eps):
    """The one-point evaluation a sweep made before it measured its grid in one call, each
    state measured from its X-state entries as the grid is."""
    cfg = CouplingConfig(transmittivity, overlap)
    stage1, stage2 = protocol.coupled_stages(cfg, "H")
    filters = protocol.eps_to_filter(eps, transmittivity)
    try:
        filtered = x_concurrence(protocol.stage3_filter(stage2, filters).state)
    except ValueError:
        filtered = float("nan")
    return (
        x_concurrence(stage1.state),
        x_concurrence(stage2.state),
        filtered,
        protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None),
    )


GRID_SWEEPS = [
    pytest.param("T", 0.0, 1.0, 21, 0.4, p, 0.15, id=f"T-p-{p}") for p in (0.0, 0.25, 0.5, 1.0)
] + [
    pytest.param("p", 0.0, 1.0, 11, 0.3, 0.0, 0.15, id="p"),
    pytest.param("eps", 0.001, 1.0, 11, 0.4, 0.0, 0.15, id="eps"),
    pytest.param("eps", 0.001, 1.0, 6, 0.0, 0.5, 0.15, id="eps-T-0-p-0.5"),
] + [  # two blocks, the first with the blocked T = 0 point
    pytest.param("T", 0.0, 1.0, 300, 0.4, p, 0.15, id=f"T-300-p-{p}") for p in (0.0, 0.5)
]


def per_point_columns(ts, ps, eps):
    """`per_point_stage_concurrences` at each point of the broadcast grid, as four arrays."""
    grid = np.broadcast_arrays(ts, ps, eps)
    points = [per_point_stage_concurrences(*point)
              for point in zip(*(axis.ravel().tolist() for axis in grid))]
    return [np.array(column).reshape(grid[0].shape) for column in zip(*points)]


class TestNegativeZeroTransmittivity:
    """A T of -0.0 reads as 0.0: no -0 reaches a sweep's columns or a report's echo."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--variable", "eps", "--min", "0.5", "--steps", "2"],
        ["sweep", "--variable", "p", "--steps", "3"],  # p = 0 and p > 0 points
    ])
    def test_sweep_prints_what_a_zero_t_prints(self, tmp_path, argv):
        outputs = []
        for t in ("-0.0", "0"):
            out = tmp_path / f"sweep{t}.csv"
            assert cli.main([*argv, "--T", t, "--out", str(out)]) == 0
            outputs.append(out.read_text(encoding="utf-8"))
        assert outputs[0] == outputs[1]
        assert "-0" not in outputs[0]

    def test_reproduce_echoes_a_zero_t(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["reproduce", "--table", "formulas", "--T", "-0.0", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        assert math.copysign(1.0, report["coupling"]["transmittivity"]) == 1.0
        assert all(math.copysign(1.0, row["parameters"]["transmittivity"]) == 1.0
                   for row in report["rows"])
        assert "-0.0" not in text


class TestSweepGrid:
    @pytest.mark.parametrize("variable, lo, hi, steps, T, p, eps", GRID_SWEEPS)
    def test_one_grid_call_gives_the_per_point_bytes(self, tmp_path, monkeypatch,
                                                     variable, lo, hi, steps, T, p, eps):
        rows = []
        for value in np.linspace(lo, hi, steps):
            value = float(value)
            point = {"T": T, "p": p, "eps": eps, variable: value}
            rows.append((value, *per_point_stage_concurrences(point["T"], point["p"], point["eps"])))
        expected = cli._csv_text(cli.SWEEP_HEADER, rows)

        calls = counting(monkeypatch, {measures: MEASURES,
                                       np.linalg: ["eigvalsh", "eigh", "svd"],
                                       fock_oracle: ["apply_beamsplitter", "reduce_to_ab"],
                                       protocol: ["stage3_filter", "filter_states",
                                                  "distinguishable_concurrences"]})
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--variable", variable, "--min", repr(lo), "--max", repr(hi),
                "--steps", str(steps), "--T", repr(T), "--p", repr(p), "--eps", repr(eps)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        overlaps = np.linspace(lo, hi, steps) if variable == "p" else np.full(steps, p)
        # each p = 0 point: one distinguishable_concurrences call, in plain floats; the p > 0
        # points of each block: one propagation (two apply_beamsplitter calls) and one
        # reduce_to_ab call, whose stage entries are filtered and measured in plain floats;
        # no filter_states pass, no measures function and none of LAPACK's eigvalsh, eigh
        # or svd is called
        oracle = [start for start in range(0, steps, protocol.GRID_BLOCK)
                  if np.any(overlaps[start:start + protocol.GRID_BLOCK] > 0.0)]
        assert calls == {
            **dict.fromkeys(MEASURES, 0),
            "eigvalsh": 0,
            "eigh": 0,
            "svd": 0,
            "apply_beamsplitter": 2 * len(oracle),
            "reduce_to_ab": len(oracle),
            "stage3_filter": 0,
            "filter_states": 0,
            "distinguishable_concurrences": int(np.count_nonzero(overlaps == 0.0)),
        }

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_tiny_transmittivity_and_eps_straddle_the_block_threshold(self, p):
        # the pass rate is about eps T^2 at p = 0, so this grid holds pass rates on both
        # sides of the 1e-15 threshold
        ts = np.concatenate([[0.0], np.geomspace(1e-9, 1e-6, 25 if p else 60)])[:, None]
        eps = np.array([1e-12, 1e-9, 1e-6, 1e-3, 0.15, 1.0])
        columns = grid_concurrences(ts, p, eps)
        expected = per_point_columns(ts, p, eps)
        for got, want in zip(columns, expected):
            assert got.shape == (len(ts), len(eps)) and got.tobytes() == want.tobytes()
        blocked = np.isnan(columns[2])
        assert blocked[0].all() and blocked[1:].any() and not blocked.all()

    def test_a_blocked_point_after_the_first_block(self, monkeypatch):
        ts = np.array([0.9, 0.5, 0.3, 0.1, 0.7, 0.0, 0.2, 0.6, 0.0, 0.0, 0.0, 0.0, 0.4])
        expected = {p: per_point_columns(ts, p, 0.15) for p in (0.0, 0.5)}
        monkeypatch.setattr(protocol, "GRID_BLOCK", 4)
        sizes = reduced_sizes(monkeypatch)
        calls = counting(monkeypatch, {protocol: ["filter_states"], measures: MEASURES})
        for p, reduced in ((0.0, []), (0.5, [4, 4, 4, 1])):
            sizes.clear()
            columns = grid_concurrences(ts, p, 0.15)
            for got, want in zip(columns, expected[p]):
                assert got.tobytes() == want.tobytes()
            assert np.isnan(columns[2]).tolist() == (ts == 0.0).tolist()
            # p = 0 takes each point from the closed form, p > 0 reduces blocks of 4, 4, 4 and
            # 1 with the oracle; either way each point is filtered in plain floats, blocked
            # (nan) or not
            assert sizes == reduced
        assert calls == {"filter_states": 0, **dict.fromkeys(MEASURES, 0)}

    def test_an_eps_sweep_at_zero_transmittivity_is_blocked_everywhere(self):
        eps = np.concatenate([np.geomspace(1e-12, 1.0, 13), np.linspace(0.001, 1.0, 300)])
        columns = grid_concurrences(0.0, 0.0, eps)
        for got, want in zip(columns, per_point_columns(0.0, 0.0, eps)):
            assert got.tobytes() == want.tobytes()
        assert np.isnan(columns[2]).all()


class TestLinspace:
    """`cli._linspace` is `np.linspace(...).tolist()`, bit for bit."""

    @staticmethod
    def assert_bits(lo, hi, steps):
        got = cli._linspace(lo, hi, steps)
        assert all(type(x) is float for x in got)
        assert np.array(got).tobytes() == np.linspace(lo, hi, steps).tobytes()

    def test_every_step_count_to_2000(self, rng):
        for steps in range(2, 2001):
            lo, hi = sorted(rng.random(2).tolist())
            self.assert_bits(lo, hi, steps)

    @pytest.mark.parametrize("steps", [2, 3, 51, 100, 101, 1001])
    def test_random_and_edge_ranges(self, rng, steps):
        ranges = [(0.0, 1.0), (0.001, 1.0), (0.4999999999999999, 0.5000000000000002),
                  (1e-12, 1.0), (0.0, 1e-300), (0.1, 0.1 + 2 ** -50)]
        ranges += [tuple(sorted(pair)) for pair in (10.0 ** rng.uniform(-12, 0, (50, 2))).tolist()]
        ranges += [tuple(sorted(pair)) for pair in rng.random((50, 2)).tolist()]
        for lo, hi in ranges:
            self.assert_bits(lo, hi, steps)

    def test_a_step_that_rounds_to_zero(self):
        # 5e-324 / 2 rounds to 0: numpy then scales i / (steps - 1) by the range instead
        assert (5e-324 / 2) == 0.0
        for steps in (2, 3, 4, 11):
            self.assert_bits(0.0, 5e-324, steps)
        self.assert_bits(1e-323, 2e-323, 5)

    def test_the_cli_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--min", "0", "--max", "5e-324", "--steps", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        values = [line.split(",")[0] for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert values == [cli.fmt(x) for x in np.linspace(0.0, 5e-324, 3)]


def imported_modules(*argv) -> tuple:
    """The exit code of an `entloc` process and the modules it imports, from its
    `-X importtime` report."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "entloc", *argv],
                            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    return result.returncode, {line.rsplit("|", 1)[-1].strip() for line in
                               result.stderr.splitlines() if line.startswith("import time:")}


class TestNumpyFreeProcess:
    """A p = 0 T or eps sweep, `hom` and a usage error run without importing numpy, and no
    sweep imports `entloc.measures`, which only `verify` and `reproduce` use."""

    @pytest.mark.parametrize("argv, status", [
        (["sweep", "--variable", "T", "--p", "0"], 0),  # through T = 0, where the filters block
        (["sweep", "--variable", "eps", "--min", "0.001", "--T", "0.3"], 0),
        (["sweep", "--eps", "0"], 2),
        (["hom", "--T", "0.3"], 0),
        (["hom", "--T", "0"], 2),
    ], ids=["T", "eps", "usage-error", "hom", "hom-usage-error"])
    def test_imports_neither_numpy_nor_the_oracle(self, tmp_path, argv, status):
        out = tmp_path / "out.csv"
        code, modules = imported_modules(*argv, "--out", str(out))
        assert code == status and out.exists() == (status == 0)
        assert "entloc.protocol" in modules and "entloc.fock_oracle" not in modules
        assert not {name for name in modules if name.split(".")[0] == "numpy"}

    def test_a_p_gt_0_sweep_imports_numpy(self, tmp_path):
        code, modules = imported_modules("sweep", "--p", "0.5", "--steps", "3",
                                         "--out", str(tmp_path / "out.csv"))
        assert code == 0 and "numpy" in modules and "entloc.fock_oracle" in modules
        assert "entloc.measures" not in modules

    @pytest.mark.parametrize("argv", [["verify", "--grid", "3"], ["reproduce", "--table", "II"]],
                             ids=["verify", "reproduce"])
    def test_verify_and_reproduce_import_measures(self, tmp_path, argv):
        code, modules = imported_modules(*argv, "--out", str(tmp_path / "out.json"))
        assert code == 0 and "entloc.measures" in modules


FORMULA_KEYS = ["C_I", "P_I", "C_II", "P_II"]
TABLE_KEYS = ["C_I", "C_II", "P_II", "C_III", "P_III"]


class TestReproduce:
    @pytest.mark.parametrize("argv, keys", [
        pytest.param(["--table", "formulas"], FORMULA_KEYS + ["C_III_limit"], id="formulas"),
        pytest.param(["--table", "distinguishable"], TABLE_KEYS, id="distinguishable"),
        pytest.param(["--table", "indistinguishable"], TABLE_KEYS + ["C_III_limit"],
                     id="indistinguishable"),
        # where the eps = 1e-6 filters block the stage II state (at T = 0, and at every T up
        # to about 3e-5), stage III has no row
        *(pytest.param(["--table", "formulas", "--T", t], FORMULA_KEYS, id=f"formulas-T-{t}")
          for t in ("0", "1e-5", "1e-9", "1e-300")),
        pytest.param(["--table", "formulas", "--T", "1e-4"], FORMULA_KEYS + ["C_III_limit"],
                     id="formulas-T-1e-4"),
        pytest.param(["--table", "formulas", "--T", "1"], FORMULA_KEYS + ["C_III_limit"],
                     id="formulas-T-1"),
    ])
    def test_tables_pass(self, tmp_path, argv, keys):
        out = tmp_path / "report.json"
        assert cli.main(["reproduce", *argv, "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        jsonschema.validate(report, load_schema("reproduce_report.schema.json"))
        assert [row["key"] for row in report["rows"]] == keys
        assert report["all_within_tolerance"] is True
        assert all(row["within_tolerance"] for row in report["rows"])

    def test_roman_aliases(self, tmp_path):
        out = tmp_path / "alias.json"
        assert cli.main(["reproduce", "--table", "II", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["table"] == "distinguishable"

    def test_benchmark_row_values(self, tmp_path):
        out = tmp_path / "dist.json"
        cli.main(["reproduce", "--table", "distinguishable", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        rows = {row["key"]: row for row in report["rows"]}
        assert rows["C_I"]["computed"] == 0.0
        assert abs(rows["C_II"]["computed"] - 0.3076923077) < 1e-9
        assert rows["C_II"]["reference_value"] == 0.32
        assert abs(rows["P_II"]["computed"] - 0.26) < 1e-9
        assert abs(rows["C_III"]["computed"] - 0.408139442) < 1e-9
        assert abs(rows["P_III"]["computed"] - 0.17) < 1e-9
        # cumulative first-principles probability reported alongside
        assert abs(rows["P_III"]["probability"] - 0.1126) < 1e-9

    def test_indistinguishable_row_values(self, tmp_path):
        out = tmp_path / "indist.json"
        cli.main(["reproduce", "--table", "indistinguishable", "--out", str(out)])
        report = json.loads(out.read_text(encoding="utf-8"))
        rows = {row["key"]: row for row in report["rows"]}
        assert abs(rows["C_II"]["computed"] - 0.2204234122) < 1e-9
        assert abs(rows["P_II"]["computed"] - 0.20075) < 1e-9
        assert abs(rows["C_III"]["computed"] - 0.4703555847) < 1e-9
        assert abs(rows["P_III"]["computed"] - 0.0889165629) < 1e-9
        assert abs(rows["P_III"]["probability"] - 0.01785) < 1e-9
        assert abs(rows["C_III_limit"]["computed"] - 0.6246972361) < 1e-9

    def test_filter_override_can_fail_tolerance(self, tmp_path):
        out = tmp_path / "off.json"
        code = cli.main(
            ["reproduce", "--table", "distinguishable", "--aa", "0.9", "--out", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        rows = {row["key"]: row for row in report["rows"]}
        assert rows["C_III"]["within_tolerance"] is False
        assert report["all_within_tolerance"] is False

    def test_deterministic_output(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        cli.main(["reproduce", "--table", "indistinguishable", "--out", str(first)])
        cli.main(["reproduce", "--table", "indistinguishable", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_table(self):
        result = run_cli("reproduce", "--table", "IV")
        assert result.returncode == 2


class TestVerify:
    def test_default_grid_passes(self, tmp_path):
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--grid", "10", "--tolerance", "1e-9", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        jsonschema.validate(report, load_schema("verify_report.schema.json"))
        assert report["passed"] is True
        assert report["max_fidelity_deficit"] < 1e-9
        assert report["max_concurrence_mismatch"] < 1e-9
        assert report["skipped_transmittivities"] == [0.0, 1.0]
        assert all(check["passed"] for check in report["checks"])
        assert all(check["failures"] == [] for check in report["checks"])

    def test_degenerate_corners_are_skipped(self, tmp_path):
        out = tmp_path / "corners.json"
        assert cli.main(["verify", "--grid", "2", "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["skipped_transmittivities"] == [0.0, 1.0]

    def test_unreachable_tolerance_fails(self, tmp_path):
        out = tmp_path / "strict.json"
        code = cli.main(["verify", "--grid", "4", "--tolerance", "1e-18", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["passed"] is False

    def test_usage_errors(self):
        assert cli.main(["verify", "--grid", "1", "--out", "-"]) == 2
        assert cli.main(["verify", "--tolerance", "-1", "--out", "-"]) == 2


class TestHom:
    def test_balanced_interferometer(self, tmp_path):
        out = tmp_path / "hom.csv"
        assert cli.main(["hom", "--T", "0.5", "--steps", "101", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == list(cli.HOM_HEADER)
        for p, coincidence, visibility in rows:
            assert abs(visibility - p) < 1e-12
            assert abs(coincidence - (1.0 - p) / 2.0) < 1e-12


class TestRejectedInvocations:
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["sweep", "--steps", "3", "--out", "MISSING"], "cannot write", id="sweep"),
            pytest.param(["reproduce", "--table", "formulas", "--out", "MISSING"], "cannot write",
                         id="reproduce"),
            pytest.param(["verify", "--grid", "2", "--out", "MISSING"], "cannot write", id="verify"),
            pytest.param(["hom", "--steps", "3", "--out", "MISSING"], "cannot write", id="hom"),
            pytest.param(["hom", "--T", "1.5", "--out", "-"],
                         "error: transmittivity must lie in [0, 1], got 1.5", id="hom-T-1.5"),
            # without mixing the visibility is 0/0 up to rounding noise
            pytest.param(["hom", "--T", "0", "--out", "-"],
                         "error: no two-photon interference at T = 0 or T = 1", id="hom-T-0"),
            pytest.param(["hom", "--T", "1", "--steps", "5", "--out", "-"],
                         "error: no two-photon interference at T = 0 or T = 1", id="hom-T-1"),
            # otherwise stage III would be nan at every point of the sweep
            pytest.param(["sweep", "--eps", "0", "--out", "-"],
                         "error: eps must lie in (0, 1], got 0.0", id="sweep-eps-0"),
            pytest.param(["sweep", "--eps", "5", "--out", "-"],
                         "error: eps must lie in (0, 1], got 5.0", id="sweep-eps-5"),
            # a swept eps grid that starts at 0 is rejected, not a nan row
            pytest.param(["sweep", "--variable", "eps", "--min", "0", "--max", "1", "--steps", "3",
                          "--T", "0.4", "--out", "-"],
                         "error: eps must lie in (0, 1], got 0.0", id="sweep-eps-grid-0"),
            pytest.param(["reproduce", "--table", "distinguishable", "--aa", "0", "--ab", "0",
                          "--out", "-"],
                         "error: filters fully blocked the state", id="reproduce-distinguishable-blocked"),
            pytest.param(["reproduce", "--table", "indistinguishable", "--aa", "0", "--ab", "0",
                          "--out", "-"],
                         "error: filters fully blocked the state", id="reproduce-indistinguishable-blocked"),
            # the formulas table has no filters whose attenuation could be overridden
            pytest.param(["reproduce", "--table", "formulas", "--aa", "0.3", "--out", "-"],
                         "error: filter attenuations (aa/ab) apply to the published tables",
                         id="reproduce-formulas-aa"),
            pytest.param(["reproduce", "--table", "I", "--ab", "0.3", "--out", "-"],
                         "error: filter attenuations (aa/ab) apply to the published tables",
                         id="reproduce-formulas-ab"),
            # a nan or infinite tolerance bounds nothing (and nan is not valid JSON)
            pytest.param(["verify", "--grid", "3", "--tolerance", "nan", "--out", "-"],
                         "error: tolerance must be positive and finite, got nan",
                         id="verify-tolerance-nan"),
            pytest.param(["verify", "--grid", "3", "--tolerance", "inf", "--out", "-"],
                         "error: tolerance must be positive and finite, got inf",
                         id="verify-tolerance-inf"),
        ],
    )
    def test_exit_2_with_message_on_stderr(self, tmp_path, capsys, argv, message):
        missing = tmp_path / "no" / "dir" / "out.txt"
        assert cli.main([str(missing) if arg == "MISSING" else arg for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not missing.parent.exists()


class TestConfigFile:
    def test_ini_defaults_and_flag_precedence(self, tmp_path):
        config = tmp_path / "defaults.ini"
        config.write_text("[defaults]\nT = 0.3\nsteps = 3\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        code = cli.main(
            ["--config", str(config), "reproduce", "--table", "formulas", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coupling"]["transmittivity"] == 0.3

        code = cli.main(
            ["--config", str(config), "reproduce", "--table", "formulas",
             "--T", "0.6", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coupling"]["transmittivity"] == 0.6

    def test_toml_defaults_and_flag_precedence(self, tmp_path):
        pytest.importorskip("tomllib")
        config = tmp_path / "defaults.toml"
        config.write_text("[defaults]\nT = 0.3\nsteps = 3\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        code = cli.main(
            ["--config", str(config), "reproduce", "--table", "formulas", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coupling"]["transmittivity"] == 0.3

        code = cli.main(
            ["--config", str(config), "reproduce", "--table", "formulas",
             "--T", "0.6", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coupling"]["transmittivity"] == 0.6

    def test_ini_steps_apply_to_sweep(self, tmp_path):
        config = tmp_path / "defaults.ini"
        config.write_text("[defaults]\nsteps = 4\n", encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert cli.main(["--config", str(config), "sweep", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4

    @pytest.mark.parametrize("argv", [
        ("sweep", "--variable", "p"), ("reproduce", "--table", "formulas"), ("hom",),
    ], ids=["sweep", "reproduce", "hom"])
    def test_config_before_or_after_the_subcommand(self, tmp_path, capsys, argv):
        config = tmp_path / "defaults.ini"
        config.write_text("[defaults]\nT = 0.3\nsteps = 3\n", encoding="utf-8")
        outputs = []
        for placed in (["--config", str(config), *argv], [*argv, "--config", str(config)]):
            assert cli.main([*placed, "--out", "-"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert cli.main([*argv, "--out", "-"]) == 0
        assert capsys.readouterr().out != outputs[0]  # the config was read in both places

    def test_a_missing_config_gives_one_message_in_both_places(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        for argv in (["--config", missing, "sweep"], ["sweep", "--config", missing]):
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", f"error: config file not found: {missing}\n")

    @pytest.mark.parametrize("argv, prog", [(["--config"], "entloc"),
                                            (["sweep", "--config"], "entloc sweep")],
                             ids=["before", "after"])
    def test_a_config_flag_without_a_value_in_both_places(self, capsys, argv, prog):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: {prog} [-h]")
        assert captured.err.endswith(f"\n{prog}: error: argument --config: expected one argument\n")

    def test_the_arguments_are_checked_before_the_config_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.ini")
        with pytest.raises(SystemExit) as exited:
            cli.main(["--config", missing, "sweep", "--steps", "x"])
        assert exited.value.code == 2
        assert "argument --steps: invalid int value: 'x'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exited:
            cli.main(["sweep", "--config", missing, "--help"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("usage: entloc sweep [-h]")

    def test_a_config_file_cannot_name_a_config(self, tmp_path, capsys):
        config = tmp_path / "nested.ini"
        config.write_text(f"[defaults]\nconfig = {config}\n", encoding="utf-8")
        assert cli.main(["sweep", "--config", str(config), "--out", "-"]) == 2
        assert capsys.readouterr() == ("", "error: unknown config key 'config'\n")

    def test_config_errors(self, tmp_path, monkeypatch, capsys):
        assert cli.main(["--config", str(tmp_path / "missing.ini"), "hom", "--out", "-"]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[defaults]\nunknown_key = 1\n", encoding="utf-8")
        assert cli.main(["--config", str(bad), "hom", "--out", "-"]) == 2
        no_section = tmp_path / "plain.ini"
        no_section.write_text("[other]\nT = 0.5\n", encoding="utf-8")
        assert cli.main(["--config", str(no_section), "hom", "--out", "-"]) == 2
        capsys.readouterr()
        # a malformed INI file is a usage error with a one-line message, not a traceback
        malformed = {
            "[defaults]\nT = 0.3\nT = 0.4\n": "option 'T' in section 'defaults' already exists",
            "[defaults]\nT = 0.3\n[defaults]\nsteps = 3\n": "section 'defaults' already exists",
            "[defaults]\nsteps 3\n": "Source contains parsing errors",
            "T = 0.3\n": "File contains no section headers",
            "[defaults]\nT = 50%\n": "'%' must be followed by '%' or '('",
        }
        for text, reason in malformed.items():
            bad.write_text(text, encoding="utf-8")
            assert cli.main(["--config", str(bad), "sweep", "--out", "-"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: invalid INI config: ") and reason in captured.err
            assert captured.err.count("\n") == 1
        if sys.version_info >= (3, 11):  # so is a malformed TOML file; tomllib ships with 3.11+
            malformed_toml = tmp_path / "bad.toml"
            malformed_toml.write_text("T = = 1\n", encoding="utf-8")
            assert cli.main(["--config", str(malformed_toml), "sweep", "--out", "-"]) == 2
            assert capsys.readouterr() == ("", f"error: invalid TOML config: {malformed_toml}: "
                                               "Invalid value (at line 1, column 5)\n")
        # so is a file that exists but cannot be read
        bad.write_text("[defaults]\nT = 0.3\n", encoding="utf-8")

        def unreadable(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(Path, "read_text", unreadable)
        assert cli.main(["--config", str(bad), "sweep", "--out", "-"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read config file {bad}: [Errno 13] Permission denied\n")

    def test_config_attenuation_rejected_for_the_formulas_table(self, tmp_path, capsys):
        config = tmp_path / "filters.ini"
        config.write_text("[defaults]\naa = 0.3\n", encoding="utf-8")
        assert cli.main(["--config", str(config), "reproduce", "--table", "formulas",
                         "--out", "-"]) == 2
        assert "error: filter attenuations (aa/ab)" in capsys.readouterr().err
        # a published table still takes the override
        out = tmp_path / "rep.json"
        assert cli.main(["--config", str(config), "reproduce", "--table", "distinguishable",
                         "--out", str(out)]) in (0, 1)
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["filters"]["att_a"] == 0.3

    @pytest.mark.parametrize("line, message", [
        ("T = [1]", "error: config key 'T': invalid float value: [1]"),
        ("steps = 50.7", "error: config key 'steps': invalid int value: 50.7"),
        ("T = true", "error: config key 'T': invalid float value: True"),
    ])
    def test_toml_value_of_the_wrong_kind(self, tmp_path, capsys, line, message):
        pytest.importorskip("tomllib")
        config = tmp_path / "typed.toml"
        config.write_text(f"[defaults]\n{line}\n", encoding="utf-8")
        assert cli.main(["--config", str(config), "sweep", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_toml_integer_for_a_float_flag(self, tmp_path):
        pytest.importorskip("tomllib")
        config = tmp_path / "integer.toml"
        config.write_text("[defaults]\nT = 0\n", encoding="utf-8")
        out = tmp_path / "rep.json"
        assert cli.main(["--config", str(config), "reproduce", "--table", "formulas",
                         "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["coupling"]["transmittivity"] == 0.0

    def test_config_value_checked_like_its_flag(self, tmp_path, capsys):
        config = tmp_path / "variable.ini"
        config.write_text("[defaults]\nvariable = q\n", encoding="utf-8")
        assert cli.main(["--config", str(config), "sweep", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: config key 'variable': invalid choice: 'q'" in captured.err


class TestParserCache:
    """One process: the parser reused without a config never takes a config's defaults."""

    @staticmethod
    def stdout(capsys, *argv):
        assert cli.main([*argv, "--out", "-"]) == 0
        return capsys.readouterr().out

    def test_a_config_default_does_not_outlive_its_call(self, tmp_path, capsys):
        config = tmp_path / "T.ini"
        config.write_text("[defaults]\nT = 0.7\n", encoding="utf-8")
        argv = ("sweep", "--variable", "p", "--steps", "5")
        default = self.stdout(capsys, *argv, "--T", "0.4")
        flagged = self.stdout(capsys, *argv, "--T", "0.7")
        assert default != flagged
        for _ in range(2):
            assert self.stdout(capsys, "--config", str(config), *argv) == flagged
            assert self.stdout(capsys, *argv) == default

    def test_a_flag_beats_a_config_default_on_repeated_calls(self, tmp_path, capsys):
        config = tmp_path / "T.ini"
        config.write_text("[defaults]\nT = 0.7\n", encoding="utf-8")
        argv = ("sweep", "--variable", "p", "--steps", "5", "--T", "0.2")
        expected = self.stdout(capsys, *argv)
        for _ in range(3):
            assert self.stdout(capsys, "--config", str(config), *argv) == expected

    def test_a_repeated_call_without_a_config_builds_no_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(1) or init(self, *a, **k))
        self.stdout(capsys, "sweep", "--steps", "3")
        count = len(built)
        self.stdout(capsys, "sweep", "--steps", "3")
        assert len(built) == count

    def test_main_runs_the_command_the_module_holds_at_call_time(self, capsys, monkeypatch):
        self.stdout(capsys, "sweep", "--steps", "2")  # the parser is cached before the patch
        monkeypatch.setattr(cli, "cmd_sweep", lambda args: (0, f"patched {args.steps}\n"))
        assert self.stdout(capsys, "sweep", "--steps", "2") == "patched 2\n"


class TestProcessInterface:
    def test_stdout_output(self):
        result = run_cli("hom", "--T", "0.5", "--steps", "3")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "p,coincidence,visibility"
        assert len(lines) == 4

    def test_bad_flag_exits_2(self):
        result = run_cli("sweep", "--variable", "q")
        assert result.returncode == 2
        assert result.stderr != ""

    def test_missing_command_exits_2(self):
        result = run_cli()
        assert result.returncode == 2

    def test_console_reports_usage_error_on_stderr(self):
        result = run_cli("sweep", "--steps", "1")
        assert result.returncode == 2
        assert "steps" in result.stderr
