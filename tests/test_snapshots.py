"""Snapshot matrix assembly, its V0 view, binary round-trips and CSV export."""

import struct

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom.errors import (BadMagic, CorruptHeader, IndexOutOfRange, InvalidValue,
                               NonFiniteData, ShapeMismatch, TooFewColumns,
                               UnsupportedVersion)
from koopmanrom.snapshots import FieldTag, KsnpWriter, SnapshotMatrix, save, load

from conftest import traced_peak


@pytest.fixture
def small_grid(classic_constants):
    return kr.Grid.for_channel(6, 4, classic_constants)


def random_matrix(rng, nx=5, ny=3, nsnap=7, **kw):
    data = rng.standard_normal((nx * ny, nsnap))
    return SnapshotMatrix(data=data, nx=nx, ny=ny, dt=kw.get("dt", 2.5),
                          dx=kw.get("dx", 1.25), dy=kw.get("dy", 0.5),
                          field_tag=kw.get("tag", FieldTag.u),
                          nondimensional=kw.get("nondimensional", False))


class TestAssemble:
    def test_constant_fields_give_equal_columns(self, small_grid):
        f = np.arange(24, dtype=float).reshape(4, 6)
        m = kr.assemble([f, f, f], 1.0, FieldTag.h, small_grid)
        assert m.n_snapshots == 3
        assert np.array_equal(m.data[:, 0], m.data[:, 1])
        assert np.array_equal(m.data[:, 1], m.data[:, 2])

    def test_flattening_order_and_round_trip(self, small_grid):
        f0 = np.arange(24, dtype=float).reshape(4, 6)
        f1 = f0[::-1].copy()
        m = kr.assemble([f0, f1], 3.0, FieldTag.v, small_grid)
        # fixed flattening: linear index = iy*nx + ix
        assert m.data[1, 0] == f0[0, 1]
        assert m.data[6, 0] == f0[1, 0]
        assert np.array_equal(m.field(0), f0)
        assert np.array_equal(m.field(1), f1)

    def test_order_preserving(self, small_grid):
        rng = np.random.default_rng(7)
        fields = [rng.standard_normal((4, 6)) for _ in range(5)]
        m = kr.assemble(fields, 1.0, FieldTag.h, small_grid)
        perm = [3, 0, 4, 1, 2]
        mp = kr.assemble([fields[i] for i in perm], 1.0, FieldTag.h, small_grid)
        assert np.array_equal(mp.data, m.data[:, perm])

    def test_shape_mismatch(self, small_grid):
        good = np.zeros((4, 6))
        bad = np.zeros((4, 5))
        with pytest.raises(ShapeMismatch):
            kr.assemble([good, bad], 1.0, FieldTag.h, small_grid)

    def test_too_few(self, small_grid):
        with pytest.raises(TooFewColumns):
            kr.assemble([np.zeros((4, 6))], 1.0, FieldTag.h, small_grid)

    def test_metadata(self, small_grid):
        m = kr.assemble([np.zeros((4, 6))] * 2, 42.0, FieldTag.u, small_grid,
                        nondimensional=True)
        assert (m.nx, m.ny, m.dt) == (6, 4, 42.0)
        assert m.dx == small_grid.dx and m.dy == small_grid.dy
        assert m.field_tag is FieldTag.u and m.nondimensional


class TestSplit:
    """``SnapshotMatrix.v0``: the matrix split before its last column, the
    fit target."""

    def test_minimal_two_columns(self):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, nsnap=2)
        assert m.v0.shape == (15, 1)
        assert np.array_equal(m.v0[:, 0], m.data[:, 0])

    def test_289_column_run_gives_rank_288_pair(self):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, nx=2, ny=2, nsnap=289)
        assert m.v0.shape == (4, 288)

    def test_reinterleave_restores_matrix(self):
        rng = np.random.default_rng(3)
        m = random_matrix(rng, nsnap=9)
        v0 = m.v0
        assert v0.base is not None and np.shares_memory(v0, m.data)
        assert np.array_equal(v0, m.data[:, :8])
        assert np.array_equal(np.hstack([v0, m.data[:, -1:]]), m.data)

    def test_single_column_matrix_rejected(self):
        with pytest.raises(TooFewColumns):
            SnapshotMatrix(data=np.zeros((4, 1)), nx=2, ny=2, dt=1.0,
                           dx=1.0, dy=1.0, field_tag=FieldTag.h)


class TestBinaryFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_matrix(rng, nondimensional=True, tag=FieldTag.v)
        # adversarial payload values: subnormals, signed zeros, extremes
        m.data[0, 0] = 5e-324
        m.data[1, 0] = -5e-324
        m.data[2, 0] = -0.0
        m.data[3, 0] = 1.7976931348623157e308
        m.data[4, 0] = -2.2250738585072014e-308
        path = tmp_path / "t.ksnp"
        save(m, path)
        back = load(path)
        assert np.array_equal(m.data.view(np.uint64), back.data.view(np.uint64))
        assert (back.nx, back.ny, back.dt, back.dx, back.dy) == (m.nx, m.ny, m.dt, m.dx, m.dy)
        assert back.field_tag is m.field_tag and back.nondimensional == m.nondimensional

    def test_header_layout_is_sealed(self, tmp_path):
        m = SnapshotMatrix(data=np.array([[1.0, 2.0]]), nx=1, ny=1, dt=3.0,
                           dx=4.0, dy=5.0, field_tag=FieldTag.u, nondimensional=True)
        path = tmp_path / "t.ksnp"
        save(m, path)
        raw = path.read_bytes()
        assert raw[:4] == b"KSNP"
        header = np.frombuffer(raw[4:28], dtype="<u4")
        assert list(header) == [1, 1, 1, 1, 1, 2]
        assert np.frombuffer(raw[28:52], dtype="<f8").tolist() == [3.0, 4.0, 5.0]
        assert np.frombuffer(raw[52:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_truncated_file(self, tmp_path):
        rng = np.random.default_rng(12)
        path = tmp_path / "t.ksnp"
        save(random_matrix(rng), path)
        raw = path.read_bytes()
        for cut in (2, 30, len(raw) - 8):
            path.write_bytes(raw[:cut])
            with pytest.raises(CorruptHeader):
                load(path)

    def test_bad_magic(self, tmp_path):
        rng = np.random.default_rng(13)
        path = tmp_path / "t.ksnp"
        save(random_matrix(rng), path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagic):
            load(path)

    def test_unsupported_version(self, tmp_path):
        rng = np.random.default_rng(14)
        path = tmp_path / "t.ksnp"
        save(random_matrix(rng), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedVersion):
            load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(15)
        path = tmp_path / "t.ksnp"
        save(random_matrix(rng), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CorruptHeader):
            load(path)

    def test_random_bit_patterns_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        bits = rng.integers(0, 2 ** 64, size=(12, 4), dtype=np.uint64)
        data = bits.view(np.float64)
        data[~np.isfinite(data)] = 0.0  # finite doubles only
        m = SnapshotMatrix(data=data, nx=4, ny=3, dt=1.0, dx=1.0, dy=1.0,
                           field_tag=FieldTag.other)
        path = tmp_path / "t.ksnp"
        save(m, path)
        assert np.array_equal(load(path).data.view(np.uint64), data.view(np.uint64))


class TestLayout:
    """assemble and load fill one C-ordered (nsnap, Nx) block; data is its
    transpose, and save and load move the payload with no second copy."""

    @staticmethod
    def assert_row_block_view(data):
        assert data.flags.f_contiguous and data.flags.aligned and data.flags.writeable
        assert data.T.flags.c_contiguous

    def test_assemble_gives_transposed_row_block(self, small_grid):
        rng = np.random.default_rng(21)
        m = kr.assemble([rng.standard_normal((4, 6)) for _ in range(5)], 1.0,
                        FieldTag.h, small_grid)
        self.assert_row_block_view(m.data)

    def test_load_gives_writable_transposed_row_block(self, tmp_path):
        path = tmp_path / "t.ksnp"
        save(random_matrix(np.random.default_rng(22)), path)
        self.assert_row_block_view(load(path).data)

    def test_save_ignores_memory_order(self, tmp_path):
        data = np.random.default_rng(23).standard_normal((15, 7))
        paths = []
        for order in ("C", "F"):
            m = SnapshotMatrix(data=np.array(data, order=order), nx=5, ny=3, dt=1.0,
                               dx=1.0, dy=1.0, field_tag=FieldTag.h)
            paths.append(tmp_path / f"{order}.ksnp")
            save(m, paths[-1])
            assert np.array_equal(load(paths[-1]).data.view(np.uint64),
                                  data.view(np.uint64))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_load_allocates_one_payload(self, tmp_path):
        m = random_matrix(np.random.default_rng(24), nx=64, ny=32, nsnap=64)
        path = tmp_path / "t.ksnp"
        save(m, path)
        back, peak = traced_peak(lambda: load(path))
        assert np.array_equal(back.data, m.data)
        # the payload plus the finite check's boolean mask (1/8 of it)
        assert peak < 1.25 * m.data.nbytes

    def test_save_copies_no_payload_of_the_row_layout(self, tmp_path):
        m = random_matrix(np.random.default_rng(25), nx=64, ny=32, nsnap=64)
        m = SnapshotMatrix(data=np.asfortranarray(m.data), nx=64, ny=32, dt=1.0,
                           dx=1.0, dy=1.0, field_tag=FieldTag.h)
        _, peak = traced_peak(lambda: save(m, tmp_path / "t.ksnp"))
        assert peak < 0.1 * m.data.nbytes

    def test_huge_header_rejected_before_allocating(self, tmp_path):
        big = 2 ** 32 - 1
        path = tmp_path / "t.ksnp"
        path.write_bytes(struct.pack("<4s6I3d", b"KSNP", 1, 0, 0, big, big, big,
                                     1.0, 1.0, 1.0))
        _, peak = traced_peak(lambda: pytest.raises(CorruptHeader, load, path))
        assert peak < 1 << 20


class TestKsnpWriter:
    """One write path: rows streamed one snapshot at a time give the bytes
    ``save`` gives, and the target only ever holds a complete file."""

    @staticmethod
    def writer(path, m, **kw):
        return KsnpWriter(path, m.n_snapshots, nx=m.nx, ny=m.ny, dt=m.dt, dx=m.dx,
                          dy=m.dy, field_tag=m.field_tag,
                          nondimensional=m.nondimensional, **kw)

    def test_streamed_fields_match_save(self, tmp_path):
        m = random_matrix(np.random.default_rng(31), nondimensional=True)
        save(m, tmp_path / "saved.ksnp")
        with self.writer(tmp_path / "streamed.ksnp", m) as w:
            for k in range(m.n_snapshots):
                w.append(m.field(k).copy())
            w.commit()
        assert (tmp_path / "streamed.ksnp").read_bytes() == \
            (tmp_path / "saved.ksnp").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["saved.ksnp", "streamed.ksnp"]

    def test_scale_divides_rows_in_place_after_the_check(self, tmp_path):
        m = random_matrix(np.random.default_rng(32))
        fields = [m.field(k).copy() for k in range(m.n_snapshots)]
        with self.writer(tmp_path / "t.ksnp", m, scale=3.0) as w:
            for f in fields:
                w.append(f)
            w.commit()
        scaled = m.data / 3.0
        assert np.array_equal(load(tmp_path / "t.ksnp").data, scaled)
        assert np.array_equal(np.stack(fields).reshape(m.n_snapshots, -1).T, scaled)

    def test_nothing_written_until_commit(self, tmp_path):
        m = random_matrix(np.random.default_rng(33))
        path = tmp_path / "t.ksnp"
        path.write_bytes(b"earlier")
        with self.writer(path, m) as w:
            w.append(m.data.T[:3])
            assert path.read_bytes() == b"earlier"
            with pytest.raises(ShapeMismatch, match="3 of 7 snapshots"):
                w.commit()
        assert path.read_bytes() == b"earlier"
        assert [p.name for p in tmp_path.iterdir()] == ["t.ksnp"]

    def test_failure_inside_the_block_removes_the_file(self, tmp_path):
        m = random_matrix(np.random.default_rng(34))
        with pytest.raises(RuntimeError):
            with self.writer(tmp_path / "t.ksnp", m) as w:
                w.append(m.field(0))
                raise RuntimeError("solver failed")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_row_named_by_snapshot(self, tmp_path):
        m = random_matrix(np.random.default_rng(35), nx=5, ny=3)
        with self.writer(tmp_path / "t.ksnp", m) as w:
            w.append(m.data.T[:2])
            bad = m.field(2).copy()
            bad[1, 2] = np.inf
            with pytest.raises(NonFiniteData, match="snapshot 2, cell 7"):
                w.append(bad)
        assert list(tmp_path.iterdir()) == []

    def test_row_count_and_shape_enforced(self, tmp_path):
        m = random_matrix(np.random.default_rng(36), nx=5, ny=3)
        with self.writer(tmp_path / "t.ksnp", m) as w:
            with pytest.raises(ShapeMismatch, match="whole snapshots"):
                w.append(np.zeros(14))
            w.append(m.data.T)
            with pytest.raises(ShapeMismatch, match="more than 7"):
                w.append(m.field(0))
            w.commit()
        assert np.array_equal(load(tmp_path / "t.ksnp").data, m.data)
        with pytest.raises(TooFewColumns):
            KsnpWriter(tmp_path / "one.ksnp", 1, nx=5, ny=3, dt=1.0, dx=1.0, dy=1.0,
                       field_tag=FieldTag.h)
        # a count beyond the header's u32 field is refused before any file
        counts = {"nsnap": 7, "nx": 5, "ny": 3}
        for name in counts:
            with pytest.raises(InvalidValue, match=f"{name} = 4294967297"):
                KsnpWriter(tmp_path / "big.ksnp", dt=1.0, dx=1.0, dy=1.0,
                           field_tag=FieldTag.h, **{**counts, name: 2 ** 32 + 1})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ksnp"]


class TestCsvExport:
    def test_layout(self, tmp_path):
        m = SnapshotMatrix(data=np.array([[1.0, 0], [2.0, 0], [3.0, 0], [4.0, 0]]),
                           nx=2, ny=2, dt=1.0, dx=1.0, dy=1.0, field_tag=FieldTag.h)
        path = tmp_path / "f.csv"
        kr.export_csv(m, 0, path)
        assert path.read_bytes() == b"1,2\n3,4\n"

    def test_parse_back_is_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        m = random_matrix(rng)
        path = tmp_path / "f.csv"
        kr.export_csv(m, 3, path)
        back = np.loadtxt(path, delimiter=",")
        # 17 significant digits round-trip doubles exactly
        assert np.array_equal(back, m.field(3))

    def test_index_out_of_range(self, tmp_path):
        rng = np.random.default_rng(18)
        m = random_matrix(rng, nsnap=4)
        for bad in (-1, 4, 99):
            with pytest.raises(IndexOutOfRange):
                kr.export_csv(m, bad, tmp_path / "f.csv")
