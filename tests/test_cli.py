"""Tests for the command-line driver: config handling and table output."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paracasimir
from paracasimir.cli import COMMANDS, RunConfig, build_config, main, parse_config_file, run
from paracasimir.energy import energy_per_length
from paracasimir.roundtrip import PhysicalRegimeError
from paracasimir.scattering import Geometry
from paracasimir.specfun import DomainError
from paracasimir.testing import IdentityCheck
from paracasimir.translation import AccuracyError

CONFIG_FIELD_COUNT = 15


def read_csv(path):
    """Split a table file into (comment lines, header, data rows)."""
    comments, table = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                table.append(line)
    rows = list(csv.reader(io.StringIO("".join(table))))
    return comments, rows[0], rows[1:]


class TestRunConfig:
    def test_dict_round_trip(self):
        config = RunConfig("energy", radius=2.0, numax=32, channel="neumann")
        clone = RunConfig.from_dict(config.to_dict())
        assert clone == config

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError, match="banana"):
            RunConfig.from_dict({"command": "energy", "banana": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"command": "explode"},
            {"command": "energy", "channel": "scalar"},
            {"command": "energy", "format": "xml"},
            {"command": "energy", "radius": -1.0},
            {"command": "energy", "separation": 0.0},
            {"command": "energy", "numax": -1},
            {"command": "energy", "quad_nodes": 1},
            {"command": "energy", "points": 0},
            {"command": "energy", "tolerance": 0.0},
            {"command": "pfa", "radius": math.nan},
            {"command": "pfa", "radius": math.inf},
            {"command": "pfa", "separation": math.nan},
            {"command": "pfa", "separation": math.inf},
            {"command": "energy", "tolerance": math.inf},
            # Flags the command would ignore: these compute at zero tilt,
            # cperp and ctheta-sweep c(theta) of the knife edge, which does
            # not depend on H, and validate its fixed identity checks.
            {"command": "cperp", "angle_deg": 30.0},
            {"command": "ctheta-sweep", "angle_deg": 10.0},
            {"command": "h-sweep", "radius": 1.0, "angle_deg": 30.0},
            {"command": "pfa", "radius": 1.0, "angle_deg": 60.0},
            {"command": "cperp", "radius": 2.0},
            {"command": "ctheta-sweep", "radius": 1.0},
            {"command": "cperp", "separation": 2.0},
            {"command": "ctheta-sweep", "separation": 0.5},
            {"command": "validate", "numax": 3},
            {"command": "validate", "radius": 2.0},
            {"command": "validate", "separation": 2.0},
            {"command": "validate", "angle_deg": 10.0},
            # pfa reads only radius and separation, energy no tolerance or
            # temperature (thermal does), h-sweep sets H from --from/--to,
            # and validate reads no setting at all.
            {"command": "pfa", "channel": "neumann"},
            {"command": "pfa", "numax": 5},
            {"command": "pfa", "tolerance": 0.1},
            {"command": "energy", "tolerance": 0.5},
            {"command": "energy", "temperature": 0.3},
            {"command": "energy", "sweep_from": 5.0},
            {"command": "h-sweep", "radius": 1.0, "separation": 7.0},
            {"command": "validate", "quad_nodes": 12},
            {"command": "validate", "qmax_scaled": 30.0},
            {"command": "validate", "tolerance": 1e-3},
            {"command": "validate", "channel": "dirichlet"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            RunConfig(**kwargs)

    def test_each_command_accepts_exactly_the_settings_it_reads(self):
        # One valid non-default value per setting; every setting but
        # command, format and path is listed.
        values = {"radius": 2.0, "separation": 2.0, "angle_deg": 10.0, "numax": 16,
                  "quad_nodes": 12, "qmax_scaled": 30.0, "tolerance": 1e-3,
                  "channel": "neumann", "sweep_from": 0.5, "sweep_to": 2.0,
                  "points": 3, "temperature": 0.2}
        assert set(values) | {"command", "format", "path"} == set(RunConfig("energy").to_dict())
        for command, (_, reads, _) in COMMANDS.items():
            assert set(reads) <= set(values), command
            for key, value in values.items():
                if key in reads:
                    assert getattr(RunConfig(command, **{key: value}), key) == value
                else:
                    with pytest.raises(DomainError, match=key):
                        RunConfig(command, **{key: value})


class TestParser:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_command_offers_the_flags_of_the_settings_it_reads(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        _, reads, _ = COMMANDS[command]
        expected = set()
        if {"sweep_from", "sweep_to", "points"} <= set(reads):
            expected |= {"--from", "--to", "--points"}
        if "temperature" in reads:
            expected.add("--temperature")
        assert flags & {"--from", "--to", "--points", "--temperature"} == expected

    def test_help_lists_the_commands_in_table_order(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        listed = re.findall(r"^    (\S+) +(.+)$", capsys.readouterr().out, re.M)
        assert listed == [(name, line) for name, (line, _, _) in COMMANDS.items()]


class TestConfigFile:
    def test_parse_values_comments_and_none(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# sweep setup\n"
            "radius = 1.5\n"
            "quad-nodes = 12   # hyphen form\n"
            "numax = 48\n"
            "qmax_scaled = none\n"
            "channel = dirichlet\n"
            "\n",
            encoding="utf-8",
        )
        values = parse_config_file(str(path))
        assert values == {
            "radius": 1.5,
            "quad_nodes": 12,
            "numax": 48,
            "qmax_scaled": None,
            "channel": "dirichlet",
        }

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("radius 1.5\n", encoding="utf-8")
        with pytest.raises(DomainError, match="1"):
            parse_config_file(str(path))

    @pytest.mark.parametrize("line", ["numax = 1.5", "radius = abc"])
    def test_malformed_value(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# header\n{line}\n", encoding="utf-8")
        with pytest.raises(DomainError, match="bad.cfg:2:"):
            parse_config_file(str(path))
        assert main(["energy", "--config", str(path)]) == 2
        assert "bad.cfg:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["numax = 100\nnumax = 12\n",
                                      "quad_nodes = 8\nnumax = 12\nquad-nodes = 8\n"])
    def test_repeated_key(self, tmp_path, capsys, text):
        path = tmp_path / "twice.cfg"
        path.write_text(text, encoding="utf-8")
        last = text.count("\n")
        with pytest.raises(DomainError, match=f"twice.cfg:{last}: .* already set on line 1"):
            parse_config_file(str(path))
        assert main(["energy", "--config", str(path)]) == 2
        assert f"twice.cfg:{last}:" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("radiation = 1.5\n", encoding="utf-8")
        with pytest.raises(DomainError):
            parse_config_file(str(path))

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("numax = 16\nradius = 2.0\n", encoding="utf-8")
        config = build_config(
            ["energy", "--config", str(path), "--numax", "24"]
        )
        assert config.numax == 24
        assert config.radius == 2.0
        assert config.command == "energy"


class TestCommandOutput:
    def test_energy_csv_table(self, tmp_path):
        out = tmp_path / "energy.csv"
        code = main([
            "energy", "--radius", "1", "--separation", "1",
            "--numax", "16", "--output", str(out),
        ])
        assert code == 0
        comments, header, rows = read_csv(out)
        assert len(comments) == CONFIG_FIELD_COUNT
        assert "# numax = 16" in comments
        assert header[:4] == ["radius", "separation", "angle_deg", "channel"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["energy"]) < 0.0
        assert float(row["quad_error"]) >= 0.0
        assert row["nu_max"] == "16"

    def test_energy_json_lines(self, tmp_path):
        out = tmp_path / "energy.jsonl"
        code = main([
            "energy", "--numax", "16", "--format", "json",
            "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        config = json.loads(lines[0])["config"]
        assert config["numax"] == 16
        record = json.loads(lines[1])
        assert record["energy"] < 0.0

    def test_cperp_constant(self, tmp_path):
        out = tmp_path / "cperp.csv"
        assert main(["cperp", "--numax", "64", "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["c_perp"]) == pytest.approx(0.0067415, abs=2e-5)

    def test_runs_are_byte_identical(self, tmp_path):
        def stable_lines(path):
            # The config echo records the output path, which is the one
            # cell allowed to differ between otherwise identical runs.
            return [line for line in path.read_bytes().splitlines()
                    if not line.startswith(b"# path")]

        for argv in (
            ["cperp", "--numax", "32"],
            ["ctheta-sweep", "--from", "0", "--to", "60", "--points", "3", "--numax", "16"],
            ["h-sweep", "--radius", "1", "--from", "0.5", "--to", "2", "--points", "3",
             "--numax", "16"],
        ):
            first, second = tmp_path / "a.csv", tmp_path / "b.csv"
            assert main(argv + ["--output", str(first)]) == 0
            assert main(argv + ["--output", str(second)]) == 0
            assert stable_lines(first) == stable_lines(second), argv

    def test_ctheta_sweep_endpoint_exact(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "ctheta-sweep", "--from", "0", "--to", "90", "--points", "3",
            "--numax", "16", "--output", str(out),
        ])
        assert code == 0
        _, header, rows = read_csv(out)
        assert len(rows) == 3
        last = dict(zip(header, rows[-1]))
        assert float(last["theta_deg"]) == 90.0
        assert float(last["c_theta"]) == pytest.approx(math.pi**2 / 1440.0,
                                                       rel=1e-15)
        assert float(last["trunc_error"]) == 0.0
        first = dict(zip(header, rows[0]))
        assert float(first["c_theta"]) == pytest.approx(0.00674, abs=3e-4)

    def test_ctheta_sweep_uses_the_asked_ladder(self, tmp_path):
        # Near broadside the row is still computed on the asked ladder:
        # -cos(theta) times the knife edge's energy at H = 1, and
        # cos(theta) times its errors.
        out = tmp_path / "sweep.csv"
        code = main([
            "ctheta-sweep", "--from", "82", "--to", "82", "--points", "1",
            "--numax", "16", "--output", str(out),
        ])
        assert code == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        theta = math.radians(82.0)
        res = energy_per_length(Geometry(0.0, 1.0, theta), nu_max=16)
        assert float(row["c_theta"]) == -math.cos(theta) * res.extrapolated
        assert float(row["trunc_error"]) == math.cos(theta) * res.trunc_error
        assert float(row["quad_error"]) == math.cos(theta) * res.quad_error

    def test_h_sweep_ratio_column(self, tmp_path):
        out = tmp_path / "hsweep.csv"
        code = main([
            "h-sweep", "--radius", "1", "--from", "0.25", "--to", "2.0",
            "--points", "3", "--numax", "16", "--output", str(out),
        ])
        assert code == 0
        _, header, rows = read_csv(out)
        ratios = [float(dict(zip(header, r))["pfa_ratio"]) for r in rows]
        assert all(0.5 < value < 1.5 for value in ratios)
        # Close in, the proximity estimate is nearly exact; as the gap
        # opens, the true energy crosses over to the slower 1/H^2 decay
        # and the ratio climbs through one.
        assert ratios == sorted(ratios)
        assert ratios[0] < 1.0 < ratios[-1]
        energies = [float(dict(zip(header, r))["energy_h2"]) for r in rows]
        assert all(value < 0.0 for value in energies)

    def test_h_sweep_of_one_point_is_its_start(self, tmp_path):
        out = tmp_path / "hsweep.csv"
        code = main(["h-sweep", "--radius", "1", "--from", "0.5", "--to", "2.0",
                     "--points", "1", "--numax", "8", "--output", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        assert [float(dict(zip(header, r))["h_over_r"]) for r in rows] == [0.5]

    def test_thermal_row(self, tmp_path):
        out = tmp_path / "thermal.csv"
        code = main([
            "thermal", "--temperature", "0.2", "--numax", "16",
            "--output", str(out),
        ])
        assert code == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["t_scaled"]) == 0.2
        assert float(row["energy"]) < 0.0

    def test_energy_table_at_order_zero(self, tmp_path):
        # The knife edge's Neumann channel has no block at order 0.
        out = tmp_path / "energy.csv"
        code = main(["energy", "--numax", "0", "--channel", "neumann", "--output", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["energy"]) == 0.0
        assert float(row["quad_error"]) == 0.0

    def test_pfa_edge_limit_flag(self, tmp_path):
        out = tmp_path / "pfa.csv"
        assert main(["pfa", "--radius", "0", "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["edge_limited"] == "true"
        assert float(row["pfa_energy"]) == 0.0

    def test_validate_passes(self, tmp_path):
        out = tmp_path / "validate.csv"
        assert main(["validate", "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert len(rows) >= 8
        for raw in rows:
            row = dict(zip(header, raw))
            assert row["passed"] == "true"
            # Plain decimal cells; container types must not leak through.
            assert "(" not in row["measure"]
            float(row["measure"])

    def test_check_results_use_plain_scalars(self):
        check = IdentityCheck("sample", np.float64(1e-3), 1e-2)
        assert type(check.measure) is float
        assert type(check.passed) is bool
        assert check.passed

    def test_stdout_default(self, capsys):
        code = run(RunConfig("pfa", radius=1.0, separation=1.0))
        assert code == 0
        captured = capsys.readouterr().out
        assert "pfa_energy" in captured
        assert "# command = pfa" in captured


class TestExitCodes:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_bad_choice_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["energy", "--channel", "bogus"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["thermal", "--temperature", "0.2", "--to", "0.5"],  # not --tolerance
        ["pfa", "--radius", "1", "--sep", "3"],              # not --separation
    ])
    def test_abbreviated_flag_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err

    def test_invalid_value_returns_2(self, capsys):
        assert main(["energy", "--numax", "-3"]) == 2
        assert "paracasimir:" in capsys.readouterr().err
        assert main(["energy", "--qmax-scaled", "inf"]) == 2
        assert "qmax_scaled" in capsys.readouterr().err

    def test_thermal_without_temperature_returns_2(self, capsys):
        assert main(["thermal"]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_h_sweep_without_radius_returns_2(self, capsys):
        assert main(["h-sweep"]) == 2
        assert "radius" in capsys.readouterr().err

    def test_h_sweep_reversed_range_returns_2(self, capsys):
        assert main(["h-sweep", "--radius", "1", "--from", "2", "--to", "1"]) == 2
        assert "h-sweep range must satisfy 0 < from <= to" in capsys.readouterr().err

    def test_failed_run_leaves_output_untouched(self, capsys, tmp_path):
        # The output file is opened only once there is something to write.
        keep = tmp_path / "keep.csv"
        keep.write_text("precious\n", encoding="utf-8")
        assert main(["h-sweep", "--output", str(keep)]) == 2
        assert "radius" in capsys.readouterr().err
        assert keep.read_text(encoding="utf-8") == "precious\n"
        # An output file that cannot be opened is reported, not raised.
        missing = tmp_path / "no_such_dir" / "table.csv"
        assert main(["pfa", "--radius", "1", "--output", str(missing)]) == 2
        assert "no_such_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, config", [
        (["pfa", "--channel", "neumann"], None),
        (["pfa", "--numax", "5"], None),
        (["pfa", "--tolerance", "0.1"], None),
        (["energy", "--tolerance", "0.5"], None),
        (["energy"], "temperature = 0.3\n"),
        (["energy"], "sweep_from = 5\n"),
        (["h-sweep", "--radius", "1", "--separation", "7"], None),
        (["validate", "--quad-nodes", "12"], None),
        (["validate", "--qmax-scaled", "30"], None),
        (["validate", "--tolerance", "1e-3"], None),
        (["validate", "--channel", "dirichlet"], None),
    ])
    def test_unread_setting_exits_2(self, capsys, tmp_path, argv, config):
        keep = tmp_path / "keep.csv"
        keep.write_text("precious\n", encoding="utf-8")
        if config is not None:
            path = tmp_path / "run.cfg"
            path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        assert main(argv + ["--output", str(keep)]) == 2
        assert "does not read" in capsys.readouterr().err
        assert keep.read_text(encoding="utf-8") == "precious\n"

    @pytest.mark.parametrize("error", [
        PhysicalRegimeError("1 - N is not positive definite"),
        AccuracyError("frequency quadrature did not converge", 0.5),
    ])
    def test_numerical_failure_exits_1_with_one_json_record(self, monkeypatch, capsys,
                                                            tmp_path, error):
        def fail(config):
            raise error

        help_line, reads, _ = COMMANDS["pfa"]
        monkeypatch.setitem(COMMANDS, "pfa", (help_line, reads, fail))
        argv = ["pfa", "--radius", "1"]
        assert main(argv) == 1
        stdout = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert main(argv + ["--output", str(out)]) == 1
        assert capsys.readouterr().out == ""
        for text in (stdout, out.read_text(encoding="utf-8")):
            lines = text.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0]) == {"error": type(error).__name__,
                                            "message": str(error)}

    def test_missing_config_file_returns_2(self, capsys, tmp_path):
        assert main(["energy", "--config", str(tmp_path / "nope.cfg")]) == 2
        assert "paracasimir:" in capsys.readouterr().err


class TestConsoleScript:
    @staticmethod
    def _child(*args):
        # The child imports the package the suite imported, installed or not.
        source = str(Path(paracasimir.__file__).parents[1])
        path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": path})

    def test_module_entry_point(self):
        proc = self._child("-m", "paracasimir.cli", "pfa", "--radius", "1")
        assert proc.returncode == 0
        assert "pfa_energy" in proc.stdout
        assert "edge_limited" in proc.stdout

    def test_import_and_extrapolation_leave_scipy_optimize_unloaded(self):
        proc = self._child("-c", (
            "import sys, paracasimir, paracasimir.cli\n"
            "limit, _ = paracasimir.extrapolate_numax([(n, 1 + 0.9 ** n) for n in (8, 16, 32, 64)])\n"
            "print(round(limit, 6), 'scipy.optimize' in sys.modules)"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1.0", "False"]
