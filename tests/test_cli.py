import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from entloc import cli, fock_oracle, measures, protocol
from entloc.params import CouplingConfig, Stage

ROOT = Path(__file__).resolve().parent.parent
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

    def test_usage_errors(self, tmp_path):
        assert cli.main(["sweep", "--steps", "1", "--out", "-"]) == 2
        assert cli.main(["sweep", "--min", "0.8", "--max", "0.2", "--out", "-"]) == 2
        assert cli.main(["sweep", "--min", "-0.5", "--max", "0.5", "--out", "-"]) == 2
        assert cli.main(["sweep", "--T", "1.5", "--out", "-"]) == 2


def per_point_stage_concurrences(transmittivity, overlap, eps):
    """The one-point evaluation a sweep made before it measured its grid in one call."""
    cfg = CouplingConfig(transmittivity, overlap)
    stage2 = protocol.stage2_measure(cfg, "H")
    filters = protocol.eps_to_filter(eps, transmittivity)
    try:
        filtered = measures.concurrence(protocol.stage3_filter(stage2, filters).state)
    except ValueError:
        filtered = float("nan")
    return (
        measures.concurrence(protocol.stage1_couple(cfg).state),
        measures.concurrence(stage2.state),
        filtered,
        protocol.concurrence_closed_form(Stage.FILTRATION, cfg, eps=None),
    )


GRID_SWEEPS = [
    pytest.param("T", 0.0, 1.0, 21, 0.4, p, 0.15, id=f"T-p-{p}") for p in (0.0, 0.25, 0.5, 1.0)
] + [
    pytest.param("p", 0.0, 1.0, 11, 0.3, 0.0, 0.15, id="p"),
    pytest.param("eps", 0.001, 1.0, 11, 0.4, 0.0, 0.15, id="eps"),
    pytest.param("eps", 0.001, 1.0, 6, 0.0, 0.5, 0.15, id="eps-T-0-p-0.5"),
]


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

        calls = {"concurrence": 0, "apply_beamsplitter": 0}

        def counted(name, func):
            def wrapper(*args):
                calls[name] += 1
                return func(*args)
            return wrapper

        monkeypatch.setattr(measures, "concurrence", counted("concurrence", measures.concurrence))
        monkeypatch.setattr(fock_oracle, "apply_beamsplitter",
                            counted("apply_beamsplitter", fock_oracle.apply_beamsplitter))
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--variable", variable, "--min", repr(lo), "--max", repr(hi),
                "--steps", str(steps), "--T", repr(T), "--p", repr(p), "--eps", repr(eps)]
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode("utf-8")
        overlaps = np.linspace(lo, hi, steps) if variable == "p" else np.full(steps, p)
        # one propagation (two apply_beamsplitter calls) per block that holds a p > 0 point
        blocks = [overlaps[start:start + protocol.GRID_BLOCK]
                  for start in range(0, steps, protocol.GRID_BLOCK)]
        assert calls == {"concurrence": 1,
                         "apply_beamsplitter": 2 * sum(bool(np.any(b > 0.0)) for b in blocks)}


FORMULA_KEYS = ["C_I", "P_I", "C_II", "P_II"]
TABLE_KEYS = ["C_I", "C_II", "P_II", "C_III", "P_III"]


class TestReproduce:
    @pytest.mark.parametrize("argv, keys", [
        pytest.param(["--table", "formulas"], FORMULA_KEYS + ["C_III_limit"], id="formulas"),
        pytest.param(["--table", "distinguishable"], TABLE_KEYS, id="distinguishable"),
        pytest.param(["--table", "indistinguishable"], TABLE_KEYS + ["C_III_limit"],
                     id="indistinguishable"),
        # at T = 0 the filters block the stage II state, so stage III has no row
        pytest.param(["--table", "formulas", "--T", "0"], FORMULA_KEYS, id="formulas-T-0"),
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

    def test_config_errors(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "missing.ini"), "hom", "--out", "-"]) == 2
        bad = tmp_path / "bad.ini"
        bad.write_text("[defaults]\nunknown_key = 1\n", encoding="utf-8")
        assert cli.main(["--config", str(bad), "hom", "--out", "-"]) == 2
        no_section = tmp_path / "plain.ini"
        no_section.write_text("[other]\nT = 0.5\n", encoding="utf-8")
        assert cli.main(["--config", str(no_section), "hom", "--out", "-"]) == 2

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
