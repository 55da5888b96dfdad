"""The LAPACK bundled with numpy, as ``dmd`` binds it (``_lapack``).

Every solve through the binding gives the bits of the ``np.linalg`` path
it replaces, which runs when the binding is patched off; the rank gate's
certificate passes no triangle that the SVD gate fails.
"""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmanrom import _lapack, cli, dmd, rom, snapshots
from koopmanrom.cli import main
from koopmanrom.errors import RankDeficient

SRC = Path(__file__).parents[1] / "src"
CONFIGS = Path(__file__).parents[1] / "configs"

needs_lapack = pytest.mark.skipif(_lapack.load() is None,
                                  reason="numpy bundles no scipy-openblas64 here")
CASES = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def without_binding():
    """A context in which ``dmd`` runs ``np.linalg`` alone."""
    return mock.patch.object(_lapack, "load", lambda: None)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def solved(block):
    """``_qr_solve`` of ``block``, or the rank it reports as deficient."""
    try:
        return dmd._qr_solve(block, what="basis")
    except RankDeficient as exc:
        return exc.rank, exc.n_columns


@st.composite
def blocks(draw):
    """[basis | target] blocks: tall, square and wide, one column, C or
    F order, strided column slices, real or complex, some of them of
    deficient rank (a zero column or a repeated one)."""
    rows = draw(st.sampled_from([1, 2, 3, 7, 40, 300, 400]))
    # past 128 columns dgeqrf factors in blocks, whose size the workspace sets
    cols = draw(st.integers(1, 12 if rows < 40 else 60 if rows < 300 else 200))
    stride = draw(st.sampled_from([1, 1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_ = draw(st.booleans())
    data = rng.standard_normal((rows, cols * stride))
    if complex_:
        data = data + 1j * rng.standard_normal((rows, cols * stride))
    data *= 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        data = np.asfortranarray(data)
    block = data[:, ::stride]
    defect = draw(st.sampled_from(["none", "none", "zero", "repeat"]))
    if defect != "none" and cols >= 3:
        block[:, 1] = 0.0 if defect == "zero" else block[:, 0]
    return block


@needs_lapack
@CASES
@given(blocks())
def test_qr_solve_gives_the_bits_of_np_linalg(block):
    got = solved(block)
    with without_binding():
        want = solved(block)
    assert len(got) == len(want)
    if len(want) == 2:   # both rank deficient, at the same rank
        assert got == want
        return
    for a, b in zip(got, want):
        assert same_bits(a, b)


def graded_triangle(rng, n, ratio, complex_):
    """An upper triangle with singular values graded from 1 to ``ratio``."""
    def orthogonal():
        a = rng.standard_normal((n, n))
        if complex_:
            a = a + 1j * rng.standard_normal((n, n))
        return np.linalg.qr(a)[0]

    sigma = np.logspace(0.0, np.log10(ratio), n)
    return np.linalg.qr((orthogonal() * sigma) @ orthogonal().conj().T, mode="r")


def svd_passes(r) -> bool:
    sv = np.linalg.svd(r, compute_uv=False)
    return bool(np.all(sv > dmd._RANK_RTOL * sv[0]))


@needs_lapack
@CASES
@given(n=st.integers(2, 200), exponent=st.floats(-14.0, -9.0),
       seed=st.integers(0, 2**32 - 1), complex_=st.booleans())
def test_certificate_passes_only_what_the_svd_passes(n, exponent, seed, complex_):
    r = graded_triangle(np.random.default_rng(seed), n, 10.0 ** exponent, complex_)
    if dmd._certified_full_rank(_lapack.load(), r):
        assert svd_passes(r)


@needs_lapack
@pytest.mark.parametrize("complex_", [False, True])
def test_certificate_spares_the_svd_of_a_well_conditioned_triangle(complex_):
    r = graded_triangle(np.random.default_rng(5), 50, 1e-9, complex_)
    assert dmd._certified_full_rank(_lapack.load(), r)


@needs_lapack
@pytest.mark.parametrize("tiny", [1e-200, 0.0, np.nan])
def test_certificate_fails_without_a_warning(tiny):
    # an inverse whose norm overflows, a zero pivot, a NaN: the SVD decides
    r = np.triu(np.random.default_rng(7).standard_normal((6, 6))) + 6.0 * np.eye(6)
    r[4, 4] = tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not dmd._certified_full_rank(_lapack.load(), r)


@needs_lapack
@pytest.mark.parametrize("complex_", [False, True])
def test_triangle_below_the_gate_raises_with_the_svd_rank(complex_):
    rng = np.random.default_rng(6)
    r = graded_triangle(rng, 40, 1e-13, complex_)
    block = np.column_stack([r, rng.standard_normal(40)])
    sv = np.linalg.svd(np.linalg.qr(block, mode="r")[:40, :40], compute_uv=False)
    rank = int(np.sum(sv > dmd._RANK_RTOL * sv[0]))
    assert rank < 40
    for context in (contextlib.nullcontext(), without_binding()):
        with context, pytest.raises(RankDeficient) as exc:
            dmd._qr_solve(block, what="basis")
        assert (exc.value.rank, exc.value.n_columns) == (rank, 40)


@pytest.fixture(scope="module")
def desk_snapshots(tmp_path_factory):
    """h, u and v KSNP files of ``configs/desk_channel.cfg``."""
    data = tmp_path_factory.mktemp("desk") / "data"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(CONFIGS / "desk_channel.cfg"),
                     "--out", str(data)]) == 0
    return data


# desk rom, reconstruct of h, u and v, and vorticity at three indices
DESK_RUNS = [["rom"], *(["reconstruct", "--field", f, "--index", "7"] for f in "huv"),
             *(["vorticity", "--index", str(i)] for i in (3, 50, 120))]


def desk_outputs(data, out):
    """stdout and the bytes of every file that ``DESK_RUNS`` write, each
    run cold."""
    found = {}
    for k, argv in enumerate(DESK_RUNS):
        echo = io.StringIO()
        with contextlib.redirect_stdout(echo):
            code = main([*argv, "--config", str(CONFIGS / "desk_channel.cfg"),
                         "--data", str(data), "--out", str(out / str(k))])
        found[" ".join(argv)] = (code, echo.getvalue())
        found.update({f"{k}/{p.name}": p.read_bytes() for p in (out / str(k)).iterdir()})
    return found


@needs_lapack
def test_desk_commands_give_the_same_bytes_without_the_binding(tmp_path, desk_snapshots):
    got = desk_outputs(desk_snapshots, tmp_path / "bound")
    with without_binding():
        want = desk_outputs(desk_snapshots, tmp_path / "unbound")
    assert got.keys() == want.keys() and any(k.endswith(".npz") for k in got)
    for key in want:
        assert got[key] == want[key], key


# the runs of its last argument, a JSON list, as desk_outputs runs them,
# in a child process: the exit code and stdout of each, one line apiece
DESK_CHILD = """if True:
    import contextlib, io, json, sys
    from koopmanrom.cli import main
    cfg, data, out, runs = sys.argv[1:]
    for k, argv in enumerate(json.loads(runs)):
        echo = io.StringIO()
        with contextlib.redirect_stdout(echo):
            code = main([*argv, "--config", cfg, "--data", data, "--out", f"{out}/{k}"])
        print(code, repr(echo.getvalue()))
    """


@pytest.mark.skipif(_lapack._threads() is None,
                    reason="numpy bundles no scipy-openblas64 here to pin")
def test_outputs_do_not_depend_on_the_thread_count(tmp_path, desk_snapshots):
    """Desk rom, reconstruct and vorticity, each cold, in child processes
    on 1 and on 2 BLAS threads: the same exit codes, stdout and bytes of
    every file, stores included.  It can fail only on a machine with at
    least 2 CPUs; on one, OpenBLAS runs both on one thread."""
    found = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
        argv = [CONFIGS / "desk_channel.cfg", desk_snapshots, out, json.dumps(DESK_RUNS)]
        proc = subprocess.run([sys.executable, "-c", DESK_CHILD, *map(str, argv)], env=env,
                              capture_output=True, text=True, check=True, timeout=300)
        files = {p.relative_to(out): p.read_bytes() for p in out.glob("*/*")}
        assert any(p.suffix == ".npz" for p in files)
        found.append((proc.stdout, files))
    assert found[0][0] == found[1][0]
    assert found[0][1].keys() == found[1][1].keys()
    for path in found[0][1]:
        assert found[0][1][path] == found[1][1][path], path


@pytest.mark.skipif(_lapack._threads() is None,
                    reason="numpy bundles no scipy-openblas64 here to pin")
def test_comparison_does_not_depend_on_the_thread_count(tmp_path):
    """The error of a 144 x 144 comparison, whose norms are BLAS dots
    long enough to be threaded, on 1 and on 2 threads of the library.
    It can fail only on a machine with at least 2 CPUs."""
    rng = np.random.default_rng(0)
    full = rng.standard_normal((144, 144))
    rec = full + 1e-3 * rng.standard_normal(full.shape)
    get, put = _lapack._threads()
    count, errors = get(), []
    try:
        for threads in (1, 2):
            put(threads)
            errors.append(cli._write_comparison(tmp_path, "{}.csv", full, rec))
    finally:
        put(count)
    assert errors[0] == errors[1]


@pytest.mark.skipif(_lapack._threads() is None,
                    reason="numpy bundles no scipy-openblas64 here to pin")
def test_modes_do_not_depend_on_the_thread_count(desk_decompositions):
    """The modes of desk u, formed afresh with the library's count at 1
    and then at 2, give the same bits, and their products run on one
    thread (this BLAS's dgemm may not differ by thread count anyway)."""
    get, put = _lapack._threads()
    seen = []

    class Probe(np.ndarray):
        @property
        def real(self):
            seen.append(get())
            return np.asarray(self).real

    dec = desk_decompositions["u"]
    dec = dataclasses.replace(dec, z=dec.z.view(Probe))
    form = type(dec).modes.func   # the uncached read
    count, modes = get(), []
    try:
        for threads in (1, 2):
            put(threads)
            modes.append(form(dec))
    finally:
        put(count)
    assert seen == [1, 1]
    assert np.array_equal(modes[0].view(np.float64), modes[1].view(np.float64))


@pytest.mark.skipif(_lapack._library() is None,
                    reason="numpy bundles no scipy-openblas64 here")
def test_store_key_changes_with_the_blas_core(desk_snapshots):
    """The store key of desk h in a child process under
    OPENBLAS_CORETYPE=Haswell differs from this process's exactly when
    the two core types differ; where the default core is Haswell, the
    keys are equal."""
    code = """if True:
        import sys
        from koopmanrom import _lapack, rom, snapshots
        print(_lapack.blas_id().split()[0])
        print(rom._store_key(snapshots.load(sys.argv[1])))
        """
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_CORETYPE="Haswell")
    proc = subprocess.run([sys.executable, "-c", code, str(desk_snapshots / "h.ksnp")],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    core, key = proc.stdout.splitlines()
    here = rom._store_key(snapshots.load(desk_snapshots / "h.ksnp"))
    assert key.split()[:6] == here.split()[:6]   # the format, the payload and dt
    assert (key != here) == (core != _lapack.blas_id().split()[0])


@pytest.mark.parametrize("show_config", [
    np.show_config,
    lambda: None,                       # numpy < 1.26: no mode argument
    lambda mode: {"Build Dependencies": {}},   # no BLAS entry
], ids=["numpy", "no-mode", "no-blas-entry"])
def test_store_key_without_the_bundled_library(desk_snapshots, show_config):
    """Where numpy bundles no scipy-openblas64, the key names numpy's BLAS
    entry, or numpy's version where ``np.show_config`` cannot give it;
    keying a store never raises."""
    with mock.patch.object(_lapack, "_library", lambda: None), \
            mock.patch.object(np, "show_config", show_config), \
            mock.patch.object(_lapack, "blas_id", _lapack.blas_id.__wrapped__):
        blas = _lapack.blas_id()
        key = rom._store_key(snapshots.load(desk_snapshots / "h.ksnp"))
    assert blas and key.endswith(" " + blas)
    if show_config is not np.show_config:
        assert blas == f"numpy {np.__version__}"


def test_import_binds_nothing():
    code = """if True:
        import koopmanrom, koopmanrom.cli
        from koopmanrom import _lapack
        assert _lapack.load.cache_info().currsize == 0
        assert _lapack._threads.cache_info().currsize == 0
        assert _lapack.blas_id.cache_info().currsize == 0
        """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
