"""Non-finite snapshot data, malformed KSNP bytes and malformed config
files fail with typed errors, and the query commands end with an exit
code on any small KSNP input."""

import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import koopmanrom as kr
from koopmanrom.cli import _CONSTANT_KEYS, _KEYS, ExperimentConfig, main, parse_config
from koopmanrom.errors import (CorruptHeader, InvalidValue, NonFiniteData,
                               TooFewColumns, ToolkitError)
from koopmanrom.snapshots import (FieldTag, KsnpWriter, SnapshotMatrix, load, read_header,
                                  save)
from koopmanrom.swe import max_signal_speed

HEADER_BYTES = 52
NX, NY, NSNAP = 3, 2, 4
NON_FINITE = (np.nan, np.inf, -np.inf, struct.unpack("<d", b"\x01\x00\x00\x00\x00\x00\xf8\xff")[0])
FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def small_matrix(data=None):
    if data is None:
        data = np.arange(NX * NY * NSNAP, dtype=float).reshape(NX * NY, NSNAP) + 1.0
    return SnapshotMatrix(data=data, nx=NX, ny=NY, dt=0.5, dx=1.0, dy=2.0,
                          field_tag=FieldTag.u)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A file path for the fuzzed bytes, and the bytes of a valid file."""
    path = tmp_path_factory.mktemp("ksnp") / "fuzz.ksnp"
    save(small_matrix(), path)
    return path, path.read_bytes()


def load_bytes(path, raw):
    """Load ``raw`` from a file: a matrix with finite data, or a ToolkitError."""
    path.write_bytes(raw)
    try:
        matrix = load(path)
    except ToolkitError:
        return None
    assert np.isfinite(matrix.data).all()
    return matrix


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_load_rejects_non_finite_payload(self, tmp_path, bad):
        data = small_matrix().data.copy()
        data[4, 2] = bad
        path = tmp_path / "bad.ksnp"
        save(small_matrix(data), path)
        with pytest.raises(NonFiniteData, match="snapshot 2, cell 4"):
            load(path)

    def test_load_rejects_non_finite_header_float(self, scratch):
        path, valid = scratch
        raw = bytearray(valid)
        raw[28:36] = struct.pack("<d", np.inf)  # dt
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeader):
            load(path)

    @pytest.mark.parametrize("value", [0.0, -0.0, -1.0, np.inf, 5e-324])
    @pytest.mark.parametrize("offset", [28, 36, 44], ids=["dt", "dx", "dy"])
    def test_load_rejects_non_positive_header_float(self, scratch, offset, value):
        path, valid = scratch
        raw = bytearray(valid)
        raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptHeader):
            load(path)

    @pytest.mark.parametrize("dt", [0.0, -1800.0])
    def test_rom_on_non_positive_dt_exits_3(self, tmp_path, capsys, dt):
        # the writer refuses such a dt, so the header bytes are forged
        rows = np.random.default_rng(0).standard_normal((12, 40))
        path = tmp_path / "h.ksnp"
        save(SnapshotMatrix(data=rows.T, nx=8, ny=5, dt=60.0, dx=1.0, dy=1.0,
                            field_tag=FieldTag.h), path)
        raw = bytearray(path.read_bytes())
        raw[28:36] = struct.pack("<d", dt)
        path.write_bytes(bytes(raw))
        assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 3
        err = capsys.readouterr().err
        assert "implausible header" in err and "Traceback" not in err
        assert not list(tmp_path.glob("out/spectrum_*"))

    @pytest.mark.parametrize("value, name", [
        *((value, name) for name in ("dt", "dx", "dy")
          for value in (0.0, -0.0, -1.0, np.inf, np.nan, 5e-324)),
        (0, "nx"), (0, "ny")])
    def test_writer_refuses_what_load_refuses(self, tmp_path, name, value):
        """KsnpWriter, and so save, raise InvalidValue (exit 3 in the
        CLI) for a dt, dx or dy that is not finite and positive, or whose
        reciprocal overflows, and for an empty grid, before any file is
        made."""
        header = {"nx": 8, "ny": 5, "dt": 60.0, "dx": 1.0, "dy": 1.0, name: value}
        with pytest.raises(InvalidValue, match=f"{name} = "):
            KsnpWriter(tmp_path / "h.ksnp", 12, field_tag=FieldTag.h, **header)
        data = np.ones((header["nx"] * header["ny"], 12))
        with pytest.raises(InvalidValue):
            save(SnapshotMatrix(data=data, field_tag=FieldTag.h, **header),
                 tmp_path / "h.ksnp")
        assert list(tmp_path.iterdir()) == []

    @settings(FUZZ, max_examples=400)
    @given(counts=st.tuples(*[st.one_of(st.sampled_from([0, 1, 2, 2 ** 32 - 1]),
                                        st.integers(0, 2 ** 32 - 1))] * 3),
           spacings=st.tuples(*[st.one_of(st.floats(1e-300, 1e300),
                                          st.sampled_from([0.0, -0.0, np.inf, -np.inf,
                                                           np.nan, 5e-324]),
                                          st.floats())] * 3),
           tag=st.sampled_from(FieldTag), nondimensional=st.booleans())
    def test_writer_and_load_accept_the_same_headers(self, tmp_path_factory, counts,
                                                      spacings, tag, nondimensional):
        """KsnpWriter refuses a header, leaving no file, exactly when
        the header reader of load refuses the same 52 bytes as an
        implausible header; a plausible one it refuses for the size of
        a file with no payload."""
        (nx, ny, nsnap), (dt, dx, dy) = counts, spacings
        directory = tmp_path_factory.mktemp("header")
        head = struct.pack("<4s6I3d", b"KSNP", 1, int(tag), int(nondimensional), nx, ny,
                           nsnap, dt, dx, dy)
        assert len(head) == HEADER_BYTES
        (directory / "forged.ksnp").write_bytes(head)
        with pytest.raises(CorruptHeader) as refused:
            read_header(directory / "forged.ksnp")
        loads = "implausible header" not in str(refused.value)
        try:
            KsnpWriter(directory / "h.ksnp", nsnap, nx=nx, ny=ny, dt=dt, dx=dx, dy=dy,
                       field_tag=tag, nondimensional=nondimensional).abort()
            writes = True
        except (InvalidValue, TooFewColumns):
            writes = False
        assert writes == loads
        assert [p.name for p in directory.iterdir()] == ["forged.ksnp"]

    def test_assemble_rejects_non_finite_field(self):
        grid = kr.Grid(nx=5, ny=4, dx=1.0, dy=1.0)
        fields = [np.ones((4, 5)) for _ in range(3)]
        fields[1][1, 2] = np.nan
        with pytest.raises(NonFiniteData, match="snapshot 1, cell 7"):
            kr.assemble(fields, 1.0, FieldTag.h, grid)

    def test_rom_on_non_finite_file_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((40, 12))
        data[7, 3] = np.nan
        path = tmp_path / "h.ksnp"
        save(SnapshotMatrix(data=data, nx=8, ny=5, dt=60.0, dx=1.0, dy=1.0,
                            field_tag=FieldTag.h), path)
        assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err
        # finite data whose 2-norm overflows: its modes cannot be normalized;
        # data whose 2-norm is below 2**-459: its residuals square to subnormals
        data[7, 3] = 0.0
        # (at 1e-300 its sum of squares underflows to 0, the norm does not)
        for scale in (1e155, 1e200, 1e-150, 1e-170, 1e-300):
            save(SnapshotMatrix(data=data * scale, nx=8, ny=5, dt=60.0, dx=1.0,
                                dy=1.0, field_tag=FieldTag.h), path)
            assert main(["rom", "--out", str(tmp_path / "out"), str(path)]) == 3
            err = capsys.readouterr().err
            assert "rescale the data" in err and "Traceback" not in err
            assert ("non-finite" in err) == (scale > 1.0)
            if scale < 1.0:
                stated = float(re.search(r"2-norm (\S+) below", err).group(1))
                assert stated == pytest.approx(np.linalg.norm(data) * scale, rel=1e-2, abs=0)


class TestLoadFuzz:
    @FUZZ
    @given(raw=st.binary(max_size=2 * HEADER_BYTES))
    def test_random_bytes(self, scratch, raw):
        load_bytes(scratch[0], raw)

    @FUZZ
    @given(cut=st.integers(min_value=0), tail=st.binary(max_size=16))
    def test_truncated_or_extended(self, scratch, cut, tail):
        path, valid = scratch
        load_bytes(path, valid[:cut % len(valid)] + tail)

    @FUZZ
    @given(flips=st.lists(st.tuples(st.integers(0, HEADER_BYTES - 1), st.integers(0, 255)),
                          min_size=1, max_size=6))
    def test_header_flips(self, scratch, flips):
        path, valid = scratch
        raw = bytearray(valid)
        for offset, value in flips:
            raw[offset] = value
        load_bytes(path, bytes(raw))

    @FUZZ
    @given(words=st.lists(st.tuples(st.integers(0, NX * NY * NSNAP - 1),
                                    st.sampled_from(NON_FINITE)), min_size=1, max_size=4))
    def test_non_finite_payload_words(self, scratch, words):
        path, valid = scratch
        raw = bytearray(valid)
        for index, value in words:
            offset = HEADER_BYTES + 8 * index
            raw[offset:offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(NonFiniteData):
            load(path)


def parse_bytes(path, raw):
    """Parse ``raw`` as a config file: a config, or a ToolkitError."""
    path.write_bytes(raw)
    try:
        return parse_config(path)
    except ToolkitError:
        return None


VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["0", "-1", "3", "1e-3", "1e400", "-1e400", "inf", "nan",
                     "1_0", "0x10", "true", "FALSE", "h,v", "h,,u", "w", "9" * 5000]),
    st.floats().map(repr),
    st.integers().map(str),
)
LINES = st.tuples(st.sampled_from(_KEYS + ("", "nx ny", "#", "buoyancy")),
                  st.sampled_from([" = ", "=", " : ", ""]), VALUES)


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def cfg_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("cfg") / "fuzz.cfg"

    @FUZZ
    @given(raw=st.binary(max_size=200))
    def test_random_bytes(self, cfg_path, raw):
        cfg = parse_bytes(cfg_path, raw)
        assert cfg is None or isinstance(cfg, ExperimentConfig)

    @FUZZ
    @given(lines=st.lists(LINES, max_size=8))
    def test_key_value_lines(self, cfg_path, lines):
        text = "".join(f"{key}{sep}{value}\n" for key, sep, value in lines)
        cfg = parse_bytes(cfg_path, text.encode("utf-8", "surrogatepass"))
        assert cfg is None or isinstance(cfg, ExperimentConfig)
        if cfg is not None:
            assert np.isfinite(cfg.snapshot_dt) and cfg.snapshot_dt > 0


# --- the query commands on small KSNP inputs ---

QUERIES = settings(max_examples=200, deadline=None, database=None, derandomize=True)
DATA_KINDS = ("random", "constant", "zero-first", "repeated", "rank-1")


def field_rows(rng, kind, nsnap, cells):
    """An (nsnap, cells) payload of the given kind, of order 1."""
    if kind == "constant":
        return np.full((nsnap, cells), rng.standard_normal())
    if kind == "repeated":
        return np.tile(rng.standard_normal(cells), (nsnap, 1))
    if kind == "rank-1":
        return np.outer(rng.standard_normal(nsnap), rng.standard_normal(cells))
    rows = rng.standard_normal((nsnap, cells))
    if kind == "zero-first":
        rows[0] = 0.0
    return rows


@st.composite
def query_inputs(draw):
    """Grids 1..8 x 1..8, 2-6 snapshots, h/u/v files of each data kind at
    scales and sampling intervals from 1e-300 to 1e300, and a command."""
    nx, ny, nsnap = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(2, 6))
    dt = 10.0 ** draw(st.floats(-300.0, 300.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = {}
    for name in ("h", "u", "v"):
        kind = draw(st.sampled_from(DATA_KINDS))
        scale = 10.0 ** draw(st.floats(-300.0, 300.0))
        fields[name] = field_rows(rng, kind, nsnap, nx * ny) * scale
    command = draw(st.sampled_from(["rom", "reconstruct", "vorticity"]))
    argv = [command]
    if command != "rom":
        argv += ["--index", str(draw(st.integers(-1, 7)))]
    if command == "reconstruct":
        argv += ["--field", draw(st.sampled_from(["h", "u", "v"]))]
    eps = draw(st.sampled_from([None, 1e-12, 0.5, 0.999]))
    if eps is not None:
        argv += ["--eps", repr(eps)]
    return (nx, ny, dt), fields, argv


class TestQueryCommands:
    @QUERIES
    @given(case=query_inputs())
    def test_every_input_ends_with_an_exit_code(self, tmp_path_factory, case):
        """rom, reconstruct and vorticity exit 0-3 with no exception, run
        twice so that the second run reads the store the first one left."""
        (nx, ny, dt), fields, argv = case
        data = tmp_path_factory.mktemp("query")
        for name, rows in fields.items():
            with KsnpWriter(data / f"{name}.ksnp", len(rows), nx=nx, ny=ny, dt=dt, dx=1.0,
                            dy=1.0, field_tag=FieldTag[name]) as writer:
                writer.append(rows)
                writer.commit()
        argv = argv + ["--out", str(data / "out"), "--data", str(data)]
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3)


# --- simulate on tiny configs with constants from wide ranges ---

SIMULATIONS = settings(max_examples=400, deadline=None, database=None, derandomize=True)
MAX_SUB_STEPS = 300


def initial_step(nx, ny, cfl, constants) -> float | None:
    """The run's initial CFL sub-step, or None where the constants, the
    grid or the initial state raise.  Float warnings are silenced here
    only: this bounds the run, the run itself is what the test checks."""
    try:
        with np.errstate(all="ignore"):
            c = kr.PhysicalConstants(**constants)
            grid = kr.Grid.for_channel(nx, ny, c)
            speed = max_signal_speed(kr.initial_state(c, grid), c)
            return cfl * min(grid.dx, grid.dy) / speed
    except (ValueError, ArithmeticError):
        return None


@st.composite
def simulate_configs(draw):
    """Grids 1..9 x 1..9, 1-3 snapshots, cfl in [0.05, 1.5] and up to
    three constants over all floats or over +-1e6; snapshot_dt puts the
    horizon at most ``MAX_SUB_STEPS`` initial sub-steps out, or is 1800 s
    where the initial step cannot be computed."""
    nx, ny = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n_snapshots = draw(st.integers(1, 3))
    cfl = draw(st.floats(0.05, 1.5))
    constants = draw(st.dictionaries(
        st.sampled_from(_CONSTANT_KEYS),
        st.one_of(st.floats(), st.floats(-1e6, 1e6)), max_size=3))
    step = initial_step(nx, ny, cfl, constants)
    snapshot_dt = 1800.0
    if step is not None and 0.0 < step < np.inf:
        longest = MAX_SUB_STEPS * step / max(n_snapshots - 1, 1)
        snapshot_dt = longest * draw(st.floats(0.01, 1.0))
    lines = {"nx": nx, "ny": ny, "n_snapshots": n_snapshots, "cfl": cfl,
             "snapshot_dt": snapshot_dt, **constants}
    return "".join(f"{key} = {value!r}\n" for key, value in lines.items())


class TestSimulateCommand:
    @SIMULATIONS
    @given(text=simulate_configs())
    def test_every_config_ends_with_an_exit_code(self, tmp_path_factory, text):
        """simulate exits 0-3 with no exception, warnings being errors."""
        run = tmp_path_factory.mktemp("simulate")
        cfg = run / "run.cfg"
        cfg.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["simulate", "--config", str(cfg), "--out", str(run / "out")])
        assert code in (0, 1, 2, 3)
