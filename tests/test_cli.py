"""Config parsing, subcommand behaviour, exit codes, CSV reports and the
decomposition store."""

import contextlib
import io
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import warnings
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koopmanrom
from koopmanrom import dmd, rom, snapshots, swe
from koopmanrom.cli import main, parse_config
from koopmanrom.errors import InvalidValue, ParseError, UnknownKey
from koopmanrom.snapshots import FieldTag, SnapshotMatrix, load, save

from conftest import build_field_matrices, make_modal_data, traced_peak


CONFIGS = Path(__file__).parents[1] / "configs"
DESK_CFG = """\
# stable channel at desk scale
nx = 48
ny = 24
orography_amplitude = 0
mean_depth = 2000
shear_depth = 220
wave_depth = 133
channel_length = 6000e3
channel_width = 4400e3
snapshot_dt = 1800
n_snapshots = 41
epsilon = 1e-3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def synthetic_ksnp(tmp_path, rng, name="h.ksnp", rank_one=True, nsnap=25, nx=8, ny=5,
                   tag=FieldTag.h):
    """Modal snapshot data written as a KSNP file tagged ``tag``.

    rank_one: one dominant decaying mode plus broadband noise far below
    the selection threshold but above the rank gate.
    """
    n = nx * ny
    if rank_one:
        phi = rng.standard_normal(n)
        data = np.stack([phi * 0.98 ** i for i in range(nsnap)], axis=1)
        data += 1e-9 * rng.standard_normal(data.shape)
    else:
        data, *_ = make_modal_data(rng, n, n_pairs=2, n_real=1, n_snapshots=nsnap)
    m = SnapshotMatrix(data=data, nx=nx, ny=ny, dt=60.0, dx=1.0, dy=1.0,
                       field_tag=tag)
    path = tmp_path / name
    save(m, path)
    return path, m


def zero_target_ksnp(tmp_path):
    """A random 8x5, 12-snapshot KSNP whose last snapshot, the fit
    target, is zero: c = 0, the companion matrix is nilpotent and the
    mode matrix has rank 1."""
    data = np.random.default_rng(7).standard_normal((40, 12))
    data[:, -1] = 0.0
    save(SnapshotMatrix(data=data, nx=8, ny=5, dt=60.0, dx=1.0, dy=1.0,
                        field_tag=FieldTag.h), tmp_path / "h.ksnp")
    return tmp_path / "h.ksnp"


RANK_ONE_MODES = "error: mode matrix has numerical rank 1 < 11 columns\n"


def test_commands_never_form_the_modes(tmp_path, monkeypatch, capsys):
    """rom, reconstruct and vorticity read no Nx x m mode matrix."""
    decs = []
    reduced_model = rom.reduced_model

    def kept(*args, **kwargs):
        used, dec, model = reduced_model(*args, **kwargs)
        decs.append(dec)
        return used, dec, model

    monkeypatch.setattr(rom, "reduced_model", kept)
    rng = np.random.default_rng(9)
    for name in ("h", "u", "v"):
        synthetic_ksnp(tmp_path, rng, name=f"{name}.ksnp", rank_one=False, nsnap=7,
                       tag=FieldTag[name])
    out, data = str(tmp_path / "out"), str(tmp_path)
    assert main(["rom", "--out", out, "--data", data]) == 0
    assert main(["reconstruct", "--out", out, "--data", data, "--field", "u",
                 "--index", "3"]) == 0
    assert main(["vorticity", "--out", out, "--data", data, "--index", "3"]) == 0
    assert len(decs) == 6 and not any("modes" in vars(dec) for dec in decs)


def test_commands_import_numpy_alone(tmp_path):
    """simulate, rom, reconstruct and vorticity never import scipy.  Run
    in a fresh interpreter, since other test modules import it."""
    cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 25\n")
    script = """
import sys
import koopmanrom
from koopmanrom import cli
cfg, out = sys.argv[1:]
for argv in (["simulate"], ["rom"], ["reconstruct", "--field", "h", "--index", "7"],
             ["vorticity", "--index", "7"]):
    assert cli.main([*argv, "--config", cfg, "--out", out]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = str(Path(koopmanrom.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestParseConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "# nothing but comments\n\n"))
        assert (cfg.nx, cfg.ny) == (129, 65)
        assert cfg.snapshot_dt == 1800.0
        assert cfg.n_snapshots == 289
        assert cfg.epsilon == 1e-3
        assert cfg.cfl == 0.8
        assert cfg.fields == ("h", "u", "v")
        assert cfg.nondimensionalize is True
        c = cfg.constants
        assert (c.coriolis_f0, c.coriolis_beta, c.gravity) == (1e-4, 1.5e-11, 9.81)
        assert (c.orography_amplitude, c.mean_depth) == (4000.0, 10e3)
        assert (c.shear_depth, c.wave_depth) == (-700.0, -400.0)
        assert (c.channel_length, c.channel_width) == (265e3, 60e3)

    def test_threshold_override(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "epsilon = 1e-4\n"))
        assert cfg.epsilon == 1e-4

    def test_out_of_range_threshold(self, tmp_path):
        with pytest.raises(InvalidValue):
            parse_config(write_cfg(tmp_path, "epsilon = 2\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(UnknownKey):
            parse_config(write_cfg(tmp_path, "buoyancy = 3\n"))

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_config(write_cfg(tmp_path, "nx = 16\nnot a pair\n"))
        assert exc.value.line_no == 2

    def test_bad_number(self, tmp_path):
        with pytest.raises(InvalidValue):
            parse_config(write_cfg(tmp_path, "cfl = fast\n"))

    def test_trailing_comments_and_fields(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "fields = h,v  # skip u\nnx = 16\n"))
        assert cfg.fields == ("h", "v") and cfg.nx == 16

    def test_bad_field_name(self, tmp_path, capsys):
        for fields, why in [("h,w", "non-empty subset"), ("h,h", "h named more than once")]:
            cfg = write_cfg(tmp_path, f"nx = 16\nny = 8\nfields = {fields}\n")
            with pytest.raises(InvalidValue, match=why):
                parse_config(cfg)
            # rejected while the config loads: no output directory, no partial file
            out = tmp_path / "o"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
            assert why in capsys.readouterr().err
            assert not out.exists()

    def test_boolean(self, tmp_path):
        assert parse_config(write_cfg(tmp_path, "nondimensionalize = false\n")) \
            .nondimensionalize is False
        with pytest.raises(InvalidValue):
            parse_config(write_cfg(tmp_path, "nondimensionalize = maybe\n"))

    def test_tiny_grid_rejected(self, tmp_path):
        with pytest.raises(InvalidValue):
            parse_config(write_cfg(tmp_path, "nx = 3\n"))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_snapshot_dt_rejected(self, tmp_path, value, capsys):
        cfg = write_cfg(tmp_path, f"nx = 16\nny = 8\nsnapshot_dt = {value}\n")
        with pytest.raises(InvalidValue, match="snapshot_dt"):
            parse_config(cfg)
        # rejected while the config loads, before the solver starts
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "snapshot_dt" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dt, n_snapshots", [(1e308, 3), (1.0, 10**400)],
                             ids=["huge-interval", "huge-count"])
    def test_overflowing_horizon_rejected(self, tmp_path, dt, n_snapshots, capsys):
        # (n_snapshots - 1) * snapshot_dt is not finite: the solver would never stop
        cfg = write_cfg(tmp_path, f"nx = 16\nny = 8\nsnapshot_dt = {dt}\n"
                                  f"n_snapshots = {n_snapshots}\n")
        with pytest.raises(InvalidValue, match="horizon"):
            parse_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "horizon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_utf8_bytes_reported_with_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"nx = 16\n# caf\xff\nny = 8\n")
        with pytest.raises(ParseError, match="UTF-8") as exc:
            parse_config(cfg)
        assert exc.value.line_no == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "UTF-8" in capsys.readouterr().err


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ["rom", "--bogus"], ["reconstruct"], ["vorticity", "--time", "1", "--index", "1"],
        ["reconstruct", "--index", "x"], ["nosuch"], []],
        ids=["unknown-option", "no-time-or-index", "time-and-index", "bad-index",
             "unknown-command", "no-command"])
    def test_usage_error_exits_3(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: koopmanrom")
        assert "error: " in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv, option", [
        (["simulate", "--eps", "0.5"], "--eps"), (["simulate", "--data", "D"], "--data"),
        (["vorticity", "--field", "h", "--index", "3"], "--field"),
        (["rom", "--field", "h", "P"], "--field"), (["rom", "--data", "D", "P"], "--data")],
        ids=["simulate-eps", "simulate-data", "vorticity-field", "rom-field-and-paths",
             "rom-data-and-paths"])
    def test_option_the_command_would_ignore_exits_3(self, tmp_path, capsys, argv, option):
        """Each subcommand offers only the options it reads: one that it
        would ignore exits 3 with one error line naming the option, before
        the config (missing here) is read or --out is made."""
        path, _ = synthetic_ksnp(tmp_path, np.random.default_rng(0), nsnap=5)
        argv = [{"D": str(tmp_path), "P": str(path)}.get(a, a) for a in argv]
        out = tmp_path / "out"
        assert main([*argv, "--config", str(tmp_path / "missing.cfg"), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error: " in line]
        assert option in line and "missing.cfg" not in line
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["rom", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: koopmanrom")


def main_within_2_gib(argv):
    """cli.main(argv) in a child process on one BLAS thread, under a 2 GiB
    address-space limit that leaves this process alone."""
    script = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from koopmanrom import cli
sys.exit(cli.main(sys.argv[1:]))
"""
    src = str(Path(koopmanrom.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})


@pytest.mark.parametrize("argv, name", [
    (["rom"], "h"), (["reconstruct", "--field", "v", "--index", "3"], "v"),
    (["vorticity", "--index", "3"], "u")], ids=["rom", "reconstruct", "vorticity"])
def test_input_beyond_memory_exits_3(tmp_path, argv, name):
    """KSNP files whose headers claim 64 snapshots of 4096 x 4096
    (8 GiB each, sparse) under a 2 GiB address-space limit: exit 3
    naming the file, no traceback and no store."""
    data = tmp_path / "data"
    data.mkdir()
    for field in ("h", "u", "v"):
        path = data / f"{field}.ksnp"
        path.write_bytes(snapshots._HEADER.pack(
            snapshots._MAGIC, 1, int(FieldTag[field]), 1, 4096, 4096, 64, 1.0, 1.0, 1.0))
        os.truncate(path, snapshots._HEADER.size + 8 * 4096 * 4096 * 64)
    proc = main_within_2_gib([*argv, "--data", data, "--out", tmp_path / "o"])
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith(f"error: {data / name}.ksnp: ")
    assert "Traceback" not in proc.stderr
    assert list((tmp_path / "o").iterdir()) == []


class TestSimulateCommand:
    def test_writes_one_file_per_field(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 5\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        echo = capsys.readouterr().out
        assert "relative drift" in echo
        for name in ("h", "u", "v"):
            m = load(out / f"{name}.ksnp")
            assert m.n_snapshots == 5
            assert m.field_tag is FieldTag[name]
            assert m.nondimensional

    def test_byte_deterministic(self, tmp_path):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 4\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("h", "u", "v"):
            assert (a / f"{name}.ksnp").read_bytes() == (b / f"{name}.ksnp").read_bytes()

    @pytest.mark.parametrize("nondimensional", [True, False])
    def test_ksnp_bytes_match_library_path(self, tmp_path, nondimensional):
        # oracle: swe.simulate -> nondimensionalize -> assemble -> save
        flag = str(nondimensional).lower()
        cfg_path = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 5\n"
                                       f"nondimensionalize = {flag}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        cfg = parse_config(cfg_path)
        matrices = build_field_matrices(cfg.constants, cfg.nx, cfg.ny, cfg.n_snapshots,
                                        cfg.snapshot_dt, nondimensional=nondimensional,
                                        cfl=cfg.cfl)
        for name, matrix in matrices.items():
            save(matrix, tmp_path / f"library_{name}.ksnp")
            assert (out / f"{name}.ksnp").read_bytes() == \
                (tmp_path / f"library_{name}.ksnp").read_bytes()

    def test_unstable_cfl_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\ncfl = 10\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "solver failure" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("snapshot_dt = 1e300\nn_snapshots = 3\n", "snapshot_dt"),
        ("coriolis_f0 = 0\ncoriolis_beta = 0\n", "Coriolis parameter vanishes"),
        ("shear_depth = 0\nwave_depth = 0\n", "non-positive reference scales"),
    ], ids=["unresolvable-horizon", "no-coriolis", "still-water"])
    def test_solver_setup_error_exits_3(self, tmp_path, capsys, text, message):
        # each passes the config checks and is rejected before any output
        cfg = write_cfg(tmp_path, DESK_CFG + "nx = 16\nny = 8\nn_snapshots = 3\n" + text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        ("n_snapshots = 1\n", "n_snapshots = 1 < 2"),
        ("cfl = 0\n", "cfl = 0.0 must be positive"),
        ("cfl = inf\n", "cfl = inf must be finite"),
        ("coriolis_f0 = inf\n", "coriolis_f0 = inf is not finite"),
        ("gravity = -1\n", "gravity, channel_length and channel_width must be positive"),
    ], ids=["one-snapshot", "zero-cfl", "infinite-cfl", "infinite-coriolis",
            "negative-gravity"])
    def test_config_guard_exits_3(self, tmp_path, capsys, text, message):
        cfg = write_cfg(tmp_path, DESK_CFG + "nx = 16\nny = 8\nn_snapshots = 3\n" + text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, message", [
        (f"nx = {10**400}\n", "grid spacing must be positive"),
        ("orography_amplitude = 4000\nchannel_length = 265e3\nchannel_width = 8e6\n",
         "no finite first sub-step on this grid: overflow"),
    ], ids=["grid-count-1e400", "hill-overflows"])
    def test_beyond_float_range_exits_3(self, tmp_path, capsys, text, message):
        # an OverflowError converting nx to a float, and a RuntimeWarning
        # in the hill (an error in this suite), both used to escape main
        cfg = write_cfg(tmp_path, DESK_CFG + "nx = 16\nny = 8\nn_snapshots = 3\n" + text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_mass_below_float_range_gives_nan_drift(self, tmp_path, capsys):
        # depths of 1e-300 m on cells of 1e-200 m^2: the mass underflows to
        # 0, and the drift divided by it
        cfg = write_cfg(tmp_path, "nx = 6\nny = 5\nn_snapshots = 2\nsnapshot_dt = 1e-120\n"
                                  "mean_depth = 1e-300\nshear_depth = 0\nwave_depth = 1e-300\n"
                                  "orography_amplitude = 0\nchannel_length = 1e-100\n"
                                  "channel_width = 1e-100\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "final 0.0000000000e+00, relative drift nan" in capsys.readouterr().out

    def test_grid_beyond_memory_exits_3(self, tmp_path):
        """A 20000 x 20000 grid under a 2 GiB address-space limit: exit 3
        naming the grid, no traceback and no output."""
        cfg = write_cfg(tmp_path, DESK_CFG + "nx = 20000\nny = 20000\n")
        proc = main_within_2_gib(["simulate", "--config", cfg, "--out", tmp_path / "o"])
        assert proc.returncode == 3, proc.stderr
        assert "grid 20000x20000" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    def test_supercritical_defaults_exit_2_with_failing_time(self, tmp_path, capsys):
        # reference constants, desk grid: depth collapses within seconds
        cfg = write_cfg(tmp_path, "nx = 48\nny = 24\nn_snapshots = 2\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "h <= 0" in err and "t=" in err


class TestSimulateStreaming:
    """simulate writes each snapshot as the solver reaches it: its memory
    does not grow with the run, and a failing run leaves no partial file
    and no changed one."""

    def test_memory_does_not_grow_with_run_length(self, tmp_path, capsys):
        # desk grid; a 60 s interval keeps 145 snapshots quick under
        # tracemalloc.  Holding the run costs 145 * 3 fields of 16 KiB, a
        # peak eight times that of 9 snapshots; streamed, the peak is one
        # snapshot plus the solver's workspace whatever the length.
        desk = (Path(__file__).parents[1] / "configs" / "desk_channel.cfg").read_text()
        peaks = {}
        for n in (9, 145):
            cfg = write_cfg(tmp_path, desk.replace("n_snapshots = 145", f"n_snapshots = {n}")
                            .replace("snapshot_dt = 1800", "snapshot_dt = 60"))
            out = tmp_path / f"o{n}"
            code, peaks[n] = traced_peak(
                lambda: main(["simulate", "--config", str(cfg), "--out", str(out)]))
            assert code == 0 and load(out / "h.ksnp").n_snapshots == n
        capsys.readouterr()
        assert peaks[145] < 1.1 * peaks[9]

    @staticmethod
    def ksnp_dir(path):
        return sorted(p.name for p in path.iterdir()) if path.exists() else []

    def test_mid_run_failure_leaves_no_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\ncfl = 10\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "solver failure" in capsys.readouterr().err
        assert self.ksnp_dir(out) == []  # the directory may exist, empty

    def test_failing_run_keeps_earlier_files(self, tmp_path, capsys):
        good = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\n", name="good.cfg")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(good), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["h.ksnp", "u.ksnp", "v.ksnp"]
        bad = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\ncfl = 10\n", name="bad.cfg")
        assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 2
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_stdout_failing_after_the_mass_line_lands_every_file(self, tmp_path, capsys):
        """A rerun whose stdout breaks at its second line, the first
        "wrote" line, exits 3 with all three files of the new run, none
        of the old run's beside them."""
        out = tmp_path / "o"
        old = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\n", name="old.cfg")
        assert main(["simulate", "--config", str(old), "--out", str(out)]) == 0
        new = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 4\n", name="new.cfg")

        class OneLine(io.StringIO):
            def write(self, text):
                if text and self.getvalue().count("\n") >= 1:
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        with mock.patch("sys.stdout", OneLine()) as stdout:
            assert main(["simulate", "--config", str(new), "--out", str(out)]) == 3
        assert stdout.getvalue().startswith("mass: ")
        assert "Broken pipe" in capsys.readouterr().err
        assert self.ksnp_dir(out) == ["h.ksnp", "u.ksnp", "v.ksnp"]
        assert all(load(out / f"{name}.ksnp").n_snapshots == 4 for name in "huv")

    def test_non_finite_row_exits_3_and_leaves_no_file(self, tmp_path, monkeypatch,
                                                       capsys):
        real = swe.simulate

        def poisoned(*args, out, **kwargs):
            class Tap:
                count = 0

                def append(self, state):
                    if self.count == 2:
                        state.u[3, 5] = np.nan
                    self.count += 1
                    out.append(state)

            real(*args, out=Tap(), **kwargs)
            return out

        monkeypatch.setattr(swe, "simulate", poisoned)
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 4\n")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "u.ksnp" in err and "at snapshot 2, cell 149" in err
        assert "Traceback" not in err
        assert self.ksnp_dir(out) == []

    # a child that runs cli.main on its arguments with SIGINT raising
    # KeyboardInterrupt, as it does under an interactive shell (a
    # background job starts with SIGINT ignored)
    CHILD = """if True:
        import signal, sys
        from koopmanrom import cli
        signal.signal(signal.SIGINT, signal.default_int_handler)
        sys.exit(cli.main(sys.argv[1:]))
        """

    @pytest.mark.parametrize("signum, code", [(signal.SIGINT, 130), (signal.SIGTERM, 143)],
                             ids=["SIGINT", "SIGTERM"])
    def test_interrupted_run_exits_with_one_line_and_no_temporary(self, tmp_path, signum,
                                                                   code):
        """A full-config simulate, sent the signal once its first KSNP
        temporary exists: the documented code, one stderr line and no
        file left in --out."""
        out = tmp_path / "o"
        src = str(Path(koopmanrom.__file__).parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-c", self.CHILD, "simulate", "--config",
             str(CONFIGS / "full_channel.cfg"), "--out", str(out)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": path})
        try:
            deadline = time.monotonic() + 120
            while not list(out.glob(".h.ksnp.*.tmp")):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.002)
            proc.send_signal(signum)
            err = proc.communicate(timeout=120)[1]
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (code, f"interrupted by {signum.name}\n")
        assert list(out.iterdir()) == []

    def test_unwritable_out_fails_before_stepping(self, tmp_path, monkeypatch, capsys):
        steps = []
        advance = swe._advance

        def counted(*args):
            steps.append(args)
            return advance(*args)

        monkeypatch.setattr(swe, "_advance", counted)
        (tmp_path / "file").write_text("not a directory")
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 3\n")
        out = tmp_path / "file" / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert steps == []


class TestRomCommand:
    def test_rank_one_summary_row(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        path, m = synthetic_ksnp(tmp_path, rng, nsnap=25)
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), str(path)]) == 0
        nt = 24
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "field,full_rank,n_dmd,reduction_percent,achieved_error,converged"
        field, rank, n_dmd, red, err, conv = summary[1].split(",")
        assert (field, rank, n_dmd, conv) == ("h", str(nt), "1", "1")
        expected = np.floor(100.0 * (nt - 1) / nt * 100.0) / 100.0
        assert float(red) == pytest.approx(expected, abs=1e-9)
        assert float(err) <= 1e-3

    def test_spectrum_csv_invariants(self, tmp_path):
        rng = np.random.default_rng(1)
        path, _ = synthetic_ksnp(tmp_path, rng, rank_one=False, nsnap=6)
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), str(path)]) == 0
        lines = (out / "spectrum_h.csv").read_text().splitlines()
        assert lines[0] == "index,re_lambda,im_lambda,sigma,omega,weight,selected,amp_abs"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 5  # exactly Nt rows
        flags = [int(r[6]) for r in rows]
        # selected rows form a weight-descending prefix
        first_zero = flags.index(0) if 0 in flags else len(flags)
        assert all(f == 1 for f in flags[:first_zero])
        assert all(f == 0 for f in flags[first_zero:])
        weights = [float(r[5]) for r in rows]
        assert weights == sorted(weights, reverse=True)
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert sum(flags) == int(summary[2])

    def test_errors_csv_matches_library(self, tmp_path):
        rng = np.random.default_rng(2)
        path, m = synthetic_ksnp(tmp_path, rng, rank_one=False, nsnap=6)
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), str(path)]) == 0
        lines = (out / "errors_h.csv").read_text().splitlines()
        assert lines[0] == "snapshot,time,rel_error"
        assert len(lines) - 1 == 5
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ks == list(range(5))
        times = [float(line.split(",")[1]) for line in lines[1:]]
        assert times == [60.0 * k for k in ks]
        used, dec = dmd.decompose(load(path))
        model = rom.select_leading_modes(used, dec, 1e-3)
        errors = [float(line.split(",")[2]) for line in lines[1:]]
        assert errors == list(rom.per_time_errors(used, dec, model.selected))

    def test_threshold_tightening_grows_selection(self, tmp_path):
        cfg = write_cfg(tmp_path, DESK_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

        def counts(eps):
            res = tmp_path / f"rom_{eps}"
            assert main(["rom", "--config", str(cfg), "--data", str(out),
                         "--out", str(res), "--eps", str(eps)]) == 0
            rows = (res / "summary.csv").read_text().splitlines()[1:]
            return {r.split(",")[0]: int(r.split(",")[2]) for r in rows}

        loose, tight = counts(1e-3), counts(1e-4)
        for name in ("h", "u", "v"):
            assert tight[name] >= loose[name]
        assert any(tight[n] > loose[n] for n in ("h", "u", "v"))

    def test_byte_deterministic_reports(self, tmp_path):
        rng = np.random.default_rng(3)
        path, _ = synthetic_ksnp(tmp_path, rng, rank_one=False, nsnap=9)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["rom", "--out", str(a), str(path)]) == 0
        assert main(["rom", "--out", str(b), str(path)]) == 0
        for name in ("spectrum_h.csv", "errors_h.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_rank_deficient_window_truncated(self, tmp_path, capsys):
        # 17 snapshots repeating with period 5: V0 has rank 5 < 16 columns
        rng = np.random.default_rng(5)
        base = rng.standard_normal((40, 5))
        m = SnapshotMatrix(data=base[:, np.arange(17) % 5], nx=8, ny=5, dt=60.0,
                           dx=1.0, dy=1.0, field_tag=FieldTag.h)
        path = tmp_path / "h.ksnp"
        save(m, path)
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), str(path)]) == 0
        echo = capsys.readouterr().out
        assert echo.splitlines()[0] == "rank 5 < 16: truncating window to the first 6 snapshots"
        assert len((out / "errors_h.csv").read_text().splitlines()) - 1 == 5
        field, rank, n_dmd, *_ = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert (field, rank) == ("h", "5")

    def test_underdetermined_window_truncated(self, tmp_path, capsys):
        # 8 cells and 20 snapshots: V0 has rank 8 < 19 columns
        rng = np.random.default_rng(6)
        m = SnapshotMatrix(data=rng.standard_normal((8, 20)), nx=4, ny=2, dt=60.0,
                           dx=1.0, dy=1.0, field_tag=FieldTag.h)
        path = tmp_path / "h.ksnp"
        save(m, path)
        assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0] == \
            "rank 8 < 19: truncating window to the first 9 snapshots"
        assert "Traceback" not in captured.err

    def test_degenerate_window_names_it_without_advice(self, tmp_path, capsys):
        # a zero first snapshot: the first r + 1 snapshots are still deficient
        data = np.random.default_rng(7).standard_normal((40, 12))
        data[:, 0] = 0.0
        m = SnapshotMatrix(data=data, nx=8, ny=5, dt=60.0, dx=1.0, dy=1.0,
                           field_tag=FieldTag.h)
        path = tmp_path / "h.ksnp"
        save(m, path)
        assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 1
        err = capsys.readouterr().err
        assert "window truncated to the first 11 snapshots" in err
        assert "rank 9 < 10 columns" in err
        assert "truncate the snapshot window" not in err
        assert "Traceback" not in err

    def test_zero_fit_target_exits_1_without_advice(self, tmp_path, capsys):
        path = zero_target_ksnp(tmp_path)
        assert main(["rom", "--out", str(tmp_path / "out"), "--eps", "0.5",
                     str(path)]) == 1
        assert capsys.readouterr().err == RANK_ONE_MODES

    def test_zero_window_exits_1(self, tmp_path, capsys):
        m = SnapshotMatrix(data=np.zeros((128, 6)), nx=16, ny=8, dt=60.0,
                           dx=1.0, dy=1.0, field_tag=FieldTag.h)
        path = tmp_path / "h.ksnp"
        save(m, path)
        assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 1
        err = capsys.readouterr().err
        assert "all zero" in err
        assert "Traceback" not in err

    def test_repeated_field_tag_exits_3_before_decomposing(self, tmp_path, monkeypatch,
                                                            capsys):
        # every output of an input is named by its tag: two h inputs would
        # overwrite each other's reports and store
        rng = np.random.default_rng(12)
        first, _ = synthetic_ksnp(tmp_path, rng, name="a.ksnp", nsnap=7)
        second, _ = synthetic_ksnp(tmp_path, rng, name="b.ksnp", nsnap=7)
        monkeypatch.setattr(dmd, "decompose", None)   # must not be reached
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), str(first), str(second)]) == 3
        err = capsys.readouterr().err
        assert f"{first} and {second} are both tagged h" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_holds_one_field_at_a_time(self, tmp_path, desk_ksnp):
        # each field's matrix and decomposition are dropped before the
        # next field is loaded: the traced peak is about 2.2 payloads,
        # against 3.4 while the previous field stayed alive
        cfg, data = desk_ksnp
        payload = load(data / "h.ksnp").data.nbytes
        with contextlib.redirect_stdout(io.StringIO()):
            code, peak = traced_peak(lambda: main(["rom", "--config", str(cfg), "--data",
                                                   str(data), "--out", str(tmp_path)]))
        assert code == 0
        assert peak < 2.5 * payload

    def test_missing_file_exits_3(self, tmp_path, capsys):
        assert main(["rom", "--out", str(tmp_path), str(tmp_path / "no.ksnp")]) == 3
        assert "error" in capsys.readouterr().err

    def test_not_converged_exits_1_but_writes(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        # clustered spectrum floors the error well above the threshold
        lams = 0.99 + 8e-3 * np.arange(5)
        modes = rng.standard_normal((40, 5))
        modes /= np.linalg.norm(modes, axis=0)
        amps = rng.standard_normal(5)
        powers = lams[None, :] ** np.arange(6)[:, None]
        m = SnapshotMatrix(data=modes @ (amps[:, None] * powers.T), nx=40, ny=1,
                           dt=1.0, dx=1.0, dy=1.0, field_tag=FieldTag.h)
        path = tmp_path / "h.ksnp"
        save(m, path)
        out = tmp_path / "out"
        assert main(["rom", "--out", str(out), "--eps", "1e-12", str(path)]) == 1
        assert "not converged" in capsys.readouterr().out
        summary = (out / "summary.csv").read_text().splitlines()[1]
        assert summary.endswith(",0")  # converged flag cleared


class TestReconstructCommand:
    def test_synthetic_exact_snapshot_one(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        path, m = synthetic_ksnp(tmp_path, rng, rank_one=False, nsnap=7)
        out = tmp_path / "out"
        code = main(["reconstruct", "--out", str(out), "--data", str(tmp_path),
                     "--field", "h", "--index", "1"])
        assert code == 0
        echo = capsys.readouterr().out
        err = float(echo.rsplit("per-time relative error = ", 1)[1].split()[0])
        assert err <= 1e-8
        full = np.loadtxt(out / "full_h_1.csv", delimiter=",")
        rom_f = np.loadtxt(out / "rom_h_1.csv", delimiter=",")
        diff = np.loadtxt(out / "diff_h_1.csv", delimiter=",")
        assert np.array_equal(full, m.field(1))
        assert np.allclose(full - rom_f, diff, atol=0.0, rtol=0.0)

    def test_zero_fit_target_exits_1_without_advice(self, tmp_path, capsys):
        zero_target_ksnp(tmp_path)
        assert main(["reconstruct", "--out", str(tmp_path / "out"), "--data",
                     str(tmp_path), "--field", "h", "--index", "11", "--eps", "0.5"]) == 1
        assert capsys.readouterr().err == RANK_ONE_MODES

    def test_zero_snapshot_gives_inf_without_warning(self, tmp_path, capsys):
        """Snapshot 10 is zero and lies past the window truncated to the
        first 8 snapshots: its relative error is inf, with no warning."""
        data = np.zeros((40, 12))
        data[:, :7] = np.random.default_rng(3).standard_normal((40, 7))
        data[:, 7] = 0.6 * data[:, 6] - 0.3 * data[:, 2]
        save(SnapshotMatrix(data=data, nx=8, ny=5, dt=60.0, dx=1.0, dy=1.0,
                            field_tag=FieldTag.h), tmp_path / "h.ksnp")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["reconstruct", "--out", str(tmp_path / "out"), "--data",
                         str(tmp_path), "--field", "h", "--index", "10"])
        out, err = capsys.readouterr()
        assert code == 0
        assert "truncating window to the first 8 snapshots" in out
        assert out.rstrip().endswith("per-time relative error = inf")
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught] == []

    def test_time_mapping_echo(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 9\nfields = h\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["reconstruct", "--config", str(cfg), "--out", str(out),
                     "--time", "2.0"])
        assert code == 0
        assert "T = 2 h -> snapshot 4" in capsys.readouterr().out
        assert (out / "full_h_4.csv").exists()

    def test_out_of_range_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        synthetic_ksnp(tmp_path, rng, rank_one=False, nsnap=7)
        code = main(["reconstruct", "--out", str(tmp_path / "o"), "--data",
                     str(tmp_path), "--field", "h", "--index", "7"])
        assert code == 3
        for name in ("u.ksnp", "v.ksnp"):
            synthetic_ksnp(tmp_path, rng, name=name, rank_one=False, nsnap=7)
        capsys.readouterr()
        # a time is compared as a float before it is rounded to an index
        huge_index = "--index=" + "9" * 400
        times = [f"--time={t}" for t in ("nan", "inf", "-inf", "1e300", "-1", "3.5")]
        for cmd in (["reconstruct", "--field", "u"], ["vorticity"]):
            for arg in times + [huge_index]:
                code = main([*cmd, "--out", str(tmp_path / "o"), "--data",
                             str(tmp_path), arg])
                err = capsys.readouterr().err
                assert code == 3, (cmd, arg)
                assert "outside the sampled range" in err and "Traceback" not in err
                assert arg == huge_index or len(err) < 100


class TestVorticityCommand:
    def test_uniform_velocity_gives_zero_files(self, tmp_path, capsys):
        ny, nx, nsnap = 4, 6, 5
        ones = np.ones((nx * ny, nsnap))
        for name, fac in (("u", 3.0), ("v", -2.0)):
            m = SnapshotMatrix(data=fac * ones + 1e-12 * np.arange(nsnap)[None, :],
                               nx=nx, ny=ny, dt=10.0, dx=100.0, dy=100.0,
                               field_tag=FieldTag[name])
            save(m, tmp_path / f"{name}.ksnp")
        out = tmp_path / "out"
        code = main(["vorticity", "--out", str(out), "--data", str(tmp_path),
                     "--index", "2"])
        assert code == 0
        w = np.loadtxt(out / "vort_full_2.csv", delimiter=",")
        assert w.shape == (ny, nx)
        assert np.max(np.abs(w)) <= 1e-13

    @pytest.mark.parametrize("key, value", [("dt", 20.0), ("nx", 8), ("dx", 300.0),
                                            ("dy", 50.0), ("nondimensional", True),
                                            ("n_snapshots", 6)])
    def test_grids_that_disagree_exit_3(self, tmp_path, capsys, key, value):
        rng = np.random.default_rng(11)
        base = dict(n_snapshots=5, nx=6, ny=4, dt=10.0, dx=100.0, dy=100.0,
                    nondimensional=False)
        for name, header in (("u", base), ("v", {**base, key: value})):
            grid = dict(header)
            data = rng.standard_normal((grid["nx"] * grid["ny"], grid.pop("n_snapshots")))
            save(SnapshotMatrix(data=data, field_tag=FieldTag[name], **grid),
                 tmp_path / f"{name}.ksnp")
        code = main(["vorticity", "--out", str(tmp_path / "out"), "--data", str(tmp_path),
                     "--index", "2"])
        assert code == 3
        assert capsys.readouterr().err == \
            "error: u.ksnp and v.ksnp disagree on sampling or grid\n"
        assert not list((tmp_path / "out").glob("dmd_*.npz"))   # nothing decomposed

    def test_headers_that_disagree_exit_3_before_a_payload_is_read(self, tmp_path, capsys):
        """u and v sampled at other intervals, each holding a NaN: the
        headers refuse the pair, so neither payload is read and no
        NonFiniteData is reported."""
        for name, dt in (("u", 10.0), ("v", 20.0)):
            data = np.random.default_rng(13).standard_normal((24, 5))
            data[3, 2] = np.nan
            save(SnapshotMatrix(data=data, nx=6, ny=4, dt=dt, dx=100.0, dy=100.0,
                                field_tag=FieldTag[name]), tmp_path / f"{name}.ksnp")
        code = main(["vorticity", "--out", str(tmp_path / "out"), "--data", str(tmp_path),
                     "--index", "2"])
        assert code == 3
        assert capsys.readouterr().err == \
            "error: u.ksnp and v.ksnp disagree on sampling or grid\n"

    def test_holds_one_payload_at_a_time(self, tmp_path):
        """On the warm stores of the desk channel, vorticity, which reduces
        u and then v, peaks below 1.5 times reconstruct of u alone: u's
        payload and store are gone before v is loaded."""
        common = ["--config", str(CONFIGS / "desk_channel.cfg"), "--out", str(tmp_path)]
        peaks = {}
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", *common]) == 0
            assert main(["rom", *common]) == 0
            for argv in (["reconstruct", "--field", "u"], ["vorticity"]):
                code, peaks[argv[0]] = traced_peak(lambda: main([*argv, "--index", "7",
                                                                 *common]))
                assert code == 0, argv
        assert peaks["vorticity"] < 1.5 * peaks["reconstruct"]

    @pytest.mark.parametrize("nx, ny", [(3, 3), (2, 5), (5, 2)])
    def test_grid_below_4x4_exits_3(self, tmp_path, capsys, nx, ny):
        rng = np.random.default_rng(12)
        for name in ("u", "v"):
            save(SnapshotMatrix(data=rng.standard_normal((nx * ny, 5)), nx=nx, ny=ny,
                                dt=10.0, dx=100.0, dy=100.0, field_tag=FieldTag[name]),
                 tmp_path / f"{name}.ksnp")
        code = main(["vorticity", "--out", str(tmp_path / "out"), "--data", str(tmp_path),
                     "--index", "2"])
        assert code == 3
        assert capsys.readouterr().err == (f"error: u.ksnp and v.ksnp: grid {nx}x{ny}: "
                                           "grid needs nx >= 4 and ny >= 4\n")

    def test_rom_vorticity_tracks_full(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, DESK_CFG + "n_snapshots = 25\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        code = main(["vorticity", "--config", str(cfg), "--out", str(out),
                     "--index", "10"])
        assert code == 0
        echo = capsys.readouterr().out
        err = float(echo.rsplit("relative difference = ", 1)[1].split()[0])
        assert err <= 0.05
        w_full = np.loadtxt(out / "vort_full_10.csv", delimiter=",")
        w_rom = np.loadtxt(out / "vort_rom_10.csv", delimiter=",")
        w_diff = np.loadtxt(out / "vort_diff_10.csv", delimiter=",")
        assert np.allclose(w_full - w_rom, w_diff, atol=0.0, rtol=0.0)


def run_counted(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout,
    stderr, number of companion fits, number of residual passes, number
    of Vandermonde matrices)."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(dmd, "fit_companion", wraps=dmd.fit_companion) as fit, \
            mock.patch.object(rom, "_residuals", wraps=rom._residuals) as passes, \
            mock.patch.object(rom, "_vandermonde", wraps=rom._vandermonde) as vand, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return (code, out.getvalue(), err.getvalue(), fit.call_count, passes.call_count,
            vand.call_count)


def run_counting(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout,
    stderr, number of companion fits)."""
    return run_counted(argv)[:4]


def outputs(directory):
    """The bytes of every report in ``directory``: all but the KSNP
    inputs and the decomposition stores."""
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
            if p.suffix not in (".ksnp", ".npz")}


def cold_run(tmp_path, argv, data):
    """``argv`` into a fresh output directory, so nothing is reused."""
    out = Path(tempfile.mkdtemp(dir=tmp_path))
    code, echo, err, fits = run_counting([*argv, "--out", out, "--data", data])
    assert fits > 0
    return code, echo, outputs(out)


@pytest.fixture(scope="module")
def desk_ksnp(tmp_path_factory):
    """h, u and v KSNP files of the 48 x 24, 41-snapshot desk channel."""
    root = tmp_path_factory.mktemp("desk")
    cfg = write_cfg(root, DESK_CFG)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(cfg), "--out", str(root / "data")]) == 0
    return cfg, root / "data"


class TestDecompositionStore:
    """rom leaves dmd_<field>.npz in --out; reconstruct and vorticity
    reuse it while the snapshot bytes match, with the same outputs, and
    read their selection off its stored curve."""

    QUERIES = (["reconstruct", "--field", "h", "--time", "5"],
               ["reconstruct", "--field", "u", "--index", "30"],
               ["vorticity", "--index", "17"])

    @pytest.fixture
    def warm(self, tmp_path, desk_ksnp):
        """An output directory where rom has run, over a copy of the data."""
        cfg, source = desk_ksnp
        data = tmp_path / "data"
        shutil.copytree(source, data)
        out = tmp_path / "warm"
        code, _, _, fits = run_counting(["rom", "--config", cfg, "--data", data,
                                         "--out", out])
        assert code == 0 and fits == 3
        assert sorted(p.name for p in out.glob("dmd_*")) == \
            ["dmd_h.npz", "dmd_u.npz", "dmd_v.npz"]
        return cfg, data, out

    def test_queries_after_rom_reuse_its_decompositions(self, tmp_path, warm):
        cfg, data, out = warm
        for query in self.QUERIES:
            argv = [*query, "--config", cfg]
            before = outputs(out)
            code, echo, err, fits = run_counting([*argv, "--out", out, "--data", data])
            assert (code, err, fits) == (0, "", 0), query
            made = {k: v for k, v in outputs(out).items() if k not in before}
            assert (code, echo, made) == cold_run(tmp_path, argv, data), query

    def test_only_rom_runs_a_residual_pass(self, tmp_path, warm):
        """One residual pass per field for rom, on a miss (the selection
        curve) and on a hit (the per-time errors of the selection); none,
        and no Vandermonde matrix, for the queries on a hit."""
        cfg, data, out = warm
        argv = ["rom", "--config", cfg, "--data", data]
        assert run_counted([*argv, "--out", tmp_path / "cold"])[3:5] == (3, 3)
        assert run_counted([*argv, "--out", out])[3:5] == (0, 3)
        for query in self.QUERIES:
            counts = run_counted([*query, "--config", cfg, "--out", out, "--data", data])
            assert counts[0] == 0 and counts[3:] == (0, 0, 0), query

    def test_unreadable_store_is_a_miss(self, tmp_path, desk_ksnp):
        """A directory where dmd_h.npz belongs neither reads as a store
        nor is replaced by one: rom decomposes afresh, reports as a cold
        run does and leaves the directory as it was."""
        cfg, data = desk_ksnp
        argv = ["rom", "--config", cfg, "--data", data]
        cold = tmp_path / "cold"
        code, cold_echo, _, _ = run_counting([*argv, "--out", cold])
        assert code == 0
        out = tmp_path / "out"
        (out / "dmd_h.npz").mkdir(parents=True)
        (out / "dmd_h.npz" / "keep").write_bytes(b"not a store")
        code, echo, err, fits = run_counting([*argv, "--out", out])
        assert (code, err, fits) == (0, "", 3)
        assert echo == cold_echo and outputs(out) == outputs(cold)
        assert [p.name for p in (out / "dmd_h.npz").iterdir()] == ["keep"]
        assert (out / "dmd_h.npz" / "keep").read_bytes() == b"not a store"
        assert not [p for p in out.iterdir() if p.suffix == ".tmp"]

    def test_second_rom_gives_the_same_reports(self, warm):
        cfg, data, out = warm
        first = outputs(out)
        code, echo, _, fits = run_counting(["rom", "--config", cfg, "--data", data,
                                            "--out", out])
        assert (code, fits) == (0, 0)
        assert outputs(out) == first
        assert echo == run_counting(["rom", "--config", cfg, "--data", data,
                                     "--out", out])[1]

    def test_other_threshold_selects_afresh(self, tmp_path, warm):
        cfg, data, out = warm
        argv = ["reconstruct", "--config", cfg, "--field", "v", "--index", "12",
                "--eps", "0.01"]
        code, echo, _, fits = run_counting([*argv, "--out", out, "--data", data])
        assert fits == 0
        assert "n_dmd = 36," not in echo  # rom's selection at epsilon = 1e-3
        cold_code, cold_echo, cold_files = cold_run(tmp_path, argv, data)
        assert (code, echo) == (cold_code, cold_echo)
        assert {k: v for k, v in outputs(out).items() if k in cold_files} == cold_files

    @pytest.mark.parametrize("change", ["payload word", "header dt"])
    def test_changed_file_is_decomposed_again(self, tmp_path, warm, change):
        cfg, data, out = warm
        raw = bytearray((data / "h.ksnp").read_bytes())
        if change == "payload word":
            raw[52 + 8 * 1234] ^= 1  # the last bit of one value
        else:
            dt = np.frombuffer(raw, "<f8", count=1, offset=28)[0]
            raw[28:36] = np.array(np.nextafter(dt, np.inf), "<f8").tobytes()
        (data / "h.ksnp").write_bytes(bytes(raw))
        argv = ["reconstruct", "--config", cfg, "--field", "h", "--index", "9"]
        code, echo, _, fits = run_counting([*argv, "--out", out, "--data", data])
        assert fits == 1
        cold_code, cold_echo, cold_files = cold_run(tmp_path, argv, data)
        assert (code, echo) == (cold_code, cold_echo)
        assert {k: v for k, v in outputs(out).items() if k in cold_files} == cold_files
        assert run_counting([*argv, "--out", out, "--data", data])[3] == 0

    def test_truncated_window_echo_on_a_hit(self, tmp_path):
        # 17 snapshots repeating with period 5: V0 has rank 5 < 16 columns
        base = np.random.default_rng(5).standard_normal((40, 5))
        save(SnapshotMatrix(data=base[:, np.arange(17) % 5], nx=8, ny=5, dt=60.0,
                            dx=1.0, dy=1.0, field_tag=FieldTag.h), tmp_path / "h.ksnp")
        out = tmp_path / "out"
        line = "rank 5 < 16: truncating window to the first 6 snapshots\n"
        code, echo, _, fits = run_counting(["rom", "--out", out, tmp_path / "h.ksnp"])
        assert (code, fits) == (0, 2) and echo.startswith(line)
        argv = ["reconstruct", "--field", "h", "--index", "3"]
        code, echo, _, fits = run_counting([*argv, "--out", out, "--data", tmp_path])
        assert fits == 0 and line in echo
        assert (code, echo) == cold_run(tmp_path, argv, tmp_path)[:2]


# the report writers as the command line had them before it formatted
# the spectrum from the model and wrote each comparison in one place,
# kept verbatim: the reports of today's commands must equal their bytes

def _spectrum_rows(dec, model):
    chosen = set(model.selected)
    rows = []
    for j in (j for group in model.order for j in group):
        lam = dec.lambdas[j]
        s = dec.exponents[j]
        rows.append((j, lam.real, lam.imag, s.real, s.imag,
                     model.weights[j], 1 if j in chosen else 0,
                     abs(dec.amplitudes[j])))
    return rows


def _write_spectrum(path, rows):
    with open(path, "w", newline="") as fh:
        fh.write("index,re_lambda,im_lambda,sigma,omega,weight,selected,amp_abs\n")
        for j, re_l, im_l, sig, om, w, sel, amp in rows:
            fh.write(f"{j},{re_l:.17g},{im_l:.17g},{sig:.17g},{om:.17g},"
                     f"{w:.17g},{sel},{amp:.17g}\n")


def _write_errors(path, matrix, errors):
    with open(path, "w", newline="") as fh:
        fh.write("snapshot,time,rel_error\n")
        for k, err in enumerate(errors):
            fh.write(f"{k},{k * matrix.dt:.17g},{err:.17g}\n")


def _relative_difference(full: np.ndarray, rec: np.ndarray) -> float:
    """||full - rec|| / ||full||; for a zero ``full``, 0 if ``rec`` is zero
    too, else inf."""
    ref = float(np.linalg.norm(full))
    diff = float(np.linalg.norm(full - rec))
    return diff / ref if ref > 0.0 else (0.0 if diff == 0.0 else float("inf"))


class TestReportBytes:
    """The spectrum, errors and comparison files of rom, reconstruct and
    vorticity on the desk channel, byte for byte against the writers
    above fed by the library."""

    @pytest.fixture(scope="class")
    def desk_run(self, tmp_path_factory, desk_ksnp):
        """rom, then reconstruct u and vorticity at snapshot 7: (output
        directory, {command: stdout}, the decomposed fields)."""
        cfg, data = desk_ksnp
        out = tmp_path_factory.mktemp("reports")
        echoes = {}
        for argv in (["rom"], ["reconstruct", "--field", "u", "--index", "7"],
                     ["vorticity", "--index", "7"]):
            code, echoes[argv[0]], err, _ = run_counting(
                [*argv, "--config", cfg, "--data", data, "--out", out])
            assert (code, err) == (0, "")
        # the library, each field decomposed afresh
        eps = parse_config(cfg).epsilon
        reduced = {name: rom.reduced_model(load(data / f"{name}.ksnp"), eps,
                                           tmp_path_factory.mktemp("store") / "dmd.npz")
                   for name in ("h", "u", "v")}
        return out, echoes, reduced

    @staticmethod
    def reference_triple(directory, names, full, rec):
        for name, grid in zip(names, (full, rec, full - rec)):
            snapshots.write_field_csv(grid, directory / name)
        return _relative_difference(full, rec)

    @pytest.mark.parametrize("name", ["h", "u", "v"])
    def test_spectrum_and_errors(self, tmp_path, desk_run, name):
        out, _, reduced = desk_run
        used, dec, model = reduced[name]
        _write_spectrum(tmp_path / "spectrum.csv", _spectrum_rows(dec, model))
        _write_errors(tmp_path / "errors.csv", used, model.time_errors)
        for report in ("spectrum", "errors"):
            assert (out / f"{report}_{name}.csv").read_bytes() == \
                (tmp_path / f"{report}.csv").read_bytes()

    def test_reconstruct_triple(self, tmp_path, desk_run):
        out, echoes, reduced = desk_run
        used, dec, model = reduced["u"]
        rec = dmd.reconstruct(dec, model.selected, 8).reshape(used.ny, used.nx)
        names = [f"{kind}_u_7.csv" for kind in ("full", "rom", "diff")]
        err = self.reference_triple(tmp_path, names, used.field(7), rec)
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert echoes["reconstruct"].endswith(f"per-time relative error = {err:.6e}\n")

    def test_vorticity_triple(self, tmp_path, desk_run):
        out, echoes, reduced = desk_run
        (mu, dec_u, model_u), (mv, dec_v, model_v) = reduced["u"], reduced["v"]
        grid = swe.Grid(nx=mu.nx, ny=mu.ny, dx=mu.dx, dy=mu.dy)

        def vort(u, v):
            return swe.vorticity(swe.SweState(h=np.ones_like(u), u=u, v=v, t=0.0), grid)

        def rec(matrix, dec, model):
            return dmd.reconstruct(dec, model.selected, 8).reshape(matrix.ny, matrix.nx)

        names = [f"vort_{kind}_7.csv" for kind in ("full", "rom", "diff")]
        err = self.reference_triple(tmp_path, names, vort(mu.field(7), mv.field(7)),
                                    vort(rec(mu, dec_u, model_u), rec(mv, dec_v, model_v)))
        for name in names:
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
        assert echoes["vorticity"].endswith(f"relative difference = {err:.6e}\n")
STORE_CASES = settings(max_examples=80, deadline=None, database=None, derandomize=True)


@pytest.fixture(scope="module")
def store_case(tmp_path_factory):
    """Synthetic h and u files (5 modes in 9 snapshots, so the window is
    truncated), the stores reconstruct leaves for them, and a cold
    reconstruct of h."""
    root = tmp_path_factory.mktemp("store")
    rng = np.random.default_rng(61)
    for name in ("h", "u"):
        synthetic_ksnp(root, rng, name=f"{name}.ksnp", rank_one=False, nsnap=9)
    argv = ["reconstruct", "--field", "h", "--index", "4", "--data", root]
    code, echo, _, _ = run_counting([*argv, "--out", root / "cold"])
    assert code == 0
    assert run_counting(["reconstruct", "--field", "u", "--index", "4", "--data", root,
                         "--out", root / "cold_u"])[0] == 0
    stores = {name: (root / f"cold{suffix}" / f"dmd_{name}.npz").read_bytes()
              for name, suffix in (("h", ""), ("u", "_u"))}
    return argv, stores, echo, outputs(root / "cold")


def unpacked(store: bytes):
    """The header fields (magic, format, key length, n, complex flag,
    conjugate groups, checksum), the key and the flat arrays, by name, of
    a store of this format."""
    head = list(rom._STORE_HEAD.unpack_from(store))
    key = store[rom._STORE_HEAD.size:][:head[2]]
    layout, _ = rom._store_layout(*head[2:6])
    arrays = {name: np.frombuffer(store, dtype, math.prod(shape), offset)
              for name, (offset, shape, dtype) in layout.items()}
    return head, key, arrays


def packed(head, key: bytes, arrays) -> bytes:
    """The header ``head`` with the checksum of the rest, the key, then
    each array at the next 64-byte aligned offset: the store of this
    format when the arrays have the extents and dtypes the header gives
    them, so that only the edit a case makes tells it from a store."""
    start = rom._STORE_HEAD.size
    raw = key
    for a in arrays.values():
        raw = raw.ljust(-(-(start + len(raw)) // 64) * 64 - start, b"\0") + a.tobytes()
    return rom._STORE_HEAD.pack(*head[:6], zlib.crc32(raw)) + raw


def _edited(store: bytes, name: str, how: str) -> bytes:
    """The store with array ``name`` one 64-byte block longer or shorter
    (or empty), narrowed to float32 or complex64, or retyped between
    float64 and complex128, under the same header: each edit moves the
    end of the file off its layout's."""
    head, key, arrays = unpacked(store)
    a = arrays[name]
    block = 64 // a.itemsize
    if how == "long":
        arrays[name] = np.concatenate([a, a[:1].repeat(block)])
    elif how == "short":
        arrays[name] = a[:-block]
    elif how == "narrow":
        arrays[name] = a.astype(np.complex64 if a.dtype.kind == "c" else np.float32)
    else:
        arrays[name] = a.real if a.dtype.kind == "c" else a.astype(np.complex128)
    return packed(head, key, arrays)


@st.composite
def damaged_stores(draw, stores):
    """Bytes that are not h's store: random, truncated, u's store, h's
    store one byte longer or shorter, with one array edited
    (``_edited``), with another complex flag, with a count of conjugate
    groups that its eigenvalues do not have (with the curve as long as
    that count, or not), under an older format number, or with a count
    of snapshots larger than the file has."""
    valid = stores["h"]
    kind = draw(st.sampled_from(["random", "truncated", "other field", "byte", "array",
                                 "flag", "groups", "older format", "counts"]))
    if kind == "random":
        return draw(st.binary(max_size=512))
    if kind == "truncated":
        return valid[:draw(st.integers(0, len(valid) - 1))]
    if kind == "other field":
        return stores["u"]
    if kind == "byte":
        return valid + b"\0" if draw(st.booleans()) else valid[:-1]
    if kind == "array":
        return _edited(valid, draw(st.sampled_from(list(unpacked(valid)[2]))),
                       draw(st.sampled_from(["long", "short", "narrow", "retyped"])))
    head, key, arrays = unpacked(valid)
    if kind == "flag":
        head[4] = draw(st.integers(0, (1 << 32) - 1).filter(lambda f: f != head[4]))
        return packed(head, key, arrays)
    if kind == "groups":
        groups = head[5]
        head[5] = draw(st.integers(0, 2 * groups).filter(lambda g: g != groups))
        if draw(st.booleans()):
            arrays["curve"] = np.resize(arrays["curve"], head[5])
        return packed(head, key, arrays)
    if kind == "older format":
        version = draw(st.integers(1, rom._STORE_VERSION - 1))
        head[1] = version
        return packed(head, key.replace(f" {rom._STORE_VERSION} ".encode(),
                                        f" {version} ".encode(), 1), arrays)
    # counts: more snapshots than the file has (9), in the header alone
    # or with every array grown to match
    if draw(st.booleans()):
        return _grown(head, key, arrays, 10)
    head[3] = draw(st.integers(10, (1 << 32) - 1))
    return packed(head, key, arrays)


def _grown(head, key: bytes, arrays, n: int) -> bytes:
    """A store whose every array is extended, consistently, to ``n``
    snapshots: one mode more per extra snapshot, a copy of the last, which
    is real or the lower of a conjugate pair, so it is its own group."""
    old = head[3] - 1
    extra = n - 1 - old
    for name, a in arrays.items():
        if a.size == old * old:
            arrays[name] = np.pad(a.reshape(old, old), (0, extra), mode="edge").ravel()
        else:
            arrays[name] = np.pad(a, (0, extra), mode="edge")
    head[3], head[5] = n, head[5] + extra
    return packed(head, key, arrays)


def test_store_layout_round_trips(store_case):
    """The test's reader and writer of this format give back h's store,
    so every damaged store above differs from it only where it says, and
    each edit of an array moves the end of the file."""
    _, stores, _, _ = store_case
    for store in stores.values():
        assert packed(*unpacked(store)) == store
        for name in unpacked(store)[2]:
            for how in ("long", "short", "narrow", "retyped"):
                assert len(_edited(store, name, how)) != len(store), (name, how)


@pytest.mark.parametrize("how", ["long", "short"])
def test_curve_not_one_entry_per_conjugate_group_is_a_miss(store_case, tmp_path, how):
    """A curve one entry longer or shorter, with the header's count of
    groups to match: the file ends where its layout does, and only the
    count of conjugate groups of the eigenvalues tells it from a store."""
    argv, stores, cold_echo, cold_files = store_case
    head, key, arrays = unpacked(stores["h"])
    head[5] += 1 if how == "long" else -1
    arrays["curve"] = np.resize(arrays["curve"], head[5])
    (tmp_path / "dmd_h.npz").write_bytes(packed(head, key, arrays))
    code, echo, err, fits = run_counting([*argv, "--out", tmp_path])
    assert (code, err) == (0, "") and fits > 0
    assert echo == cold_echo and outputs(tmp_path) == cold_files
    assert (tmp_path / "dmd_h.npz").read_bytes() == stores["h"]


@STORE_CASES
@given(data=st.data())
def test_any_damaged_store_is_recomputed(store_case, data):
    argv, stores, cold_echo, cold_files = store_case
    raw = data.draw(damaged_stores(stores))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "dmd_h.npz").write_bytes(raw)
        code, echo, err, fits = run_counting([*argv, "--out", out])
        assert (code, err) == (0, "") and fits > 0
        assert (out / "dmd_h.npz").read_bytes() == stores["h"]
        assert echo == cold_echo and outputs(out) == cold_files
        assert sorted(p.name for p in out.iterdir() if p.suffix == ".npz") == ["dmd_h.npz"]
        assert not [p for p in out.iterdir() if p.name.startswith(".")]
        # what it left behind is a valid store
        assert run_counting([*argv, "--out", out])[:4] == (0, cold_echo, "", 0)


@pytest.fixture(scope="module")
def desk_store(tmp_path_factory, desk_ksnp):
    """The argv of rom and of reconstruct h at index 7 on the desk
    channel, the directory they ran in one after the other, what they
    printed (exit code, stdout) and the outputs they left there."""
    cfg, data = desk_ksnp
    out = tmp_path_factory.mktemp("undamaged")
    commands = (["rom", "--config", cfg, "--data", data],
                ["reconstruct", "--config", cfg, "--data", data, "--field", "h", "--index", "7"])
    echoes = [run_counting([*argv, "--out", out])[:2] for argv in commands]
    assert [code for code, _ in echoes] == [0, 0]
    return commands, out, echoes, outputs(out)


def damaged(store: bytes, damage) -> bytes:
    """The store with one bit flipped, bit ``damage`` modulo its size, or
    with a pinned damage: "curve", the lowest exponent bit of the curve
    entry where the selection at epsilon = 1e-3 stops, or "nan z", a NaN
    in z[0, 0].  The header is left as it was."""
    raw = bytearray(store)
    if isinstance(damage, int):
        damage %= 8 * len(raw)
        raw[damage // 8] ^= 1 << damage % 8
        return bytes(raw)
    head = rom._STORE_HEAD.unpack_from(store)
    layout, _ = rom._store_layout(*head[2:6])
    if damage == "curve":
        offset, shape, dtype = layout["curve"]
        curve = np.frombuffer(store, dtype, shape[0], offset)
        stop = int(np.argmax(curve <= 1e-3))
        raw[offset + 8 * stop + 6] ^= 0x10   # bit 52 of the little-endian float
    else:
        offset, _, _ = layout["z"]
        raw[offset:offset + 8] = np.array(np.nan, "<f8").tobytes()
    return bytes(raw)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(damage=st.integers(0, 2**40))
@example(damage="curve")
@example(damage="nan z")
def test_a_damaged_store_is_a_miss(desk_store, damage):
    """rom and reconstruct on a desk h store with a flipped bit, or a
    NaN, decompose h again: the same exit codes, stdout and outputs as
    on the undamaged store, which they write back."""
    commands, undamaged, echoes, files = desk_store
    store = (undamaged / "dmd_h.npz").read_bytes()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for name in ("u", "v"):
            shutil.copy(undamaged / f"dmd_{name}.npz", out)
        for argv, echo in zip(commands, echoes):
            (out / "dmd_h.npz").write_bytes(damaged(store, damage))
            assert run_counting([*argv, "--out", out])[:2] == echo, argv[0]
        assert outputs(out) == files
        assert (out / "dmd_h.npz").read_bytes() == store
