"""Shared fixtures: stable channel configurations and desk-scale data.

The default constants describe a violently supercritical channel (a
15 km/s jet against a 300 m/s gravity-wave speed) that shocks within
seconds of model time, so long-horizon fixtures use the classic
quasi-geostrophic channel parameters instead: a 6000 x 4400 km domain,
2000 m mean depth and a wavenumber-one perturbation of tens of metres.
That configuration is integrable for days and exercises every stage of
the pipeline.
"""

import os
import shutil
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import koopmanrom as kr
from koopmanrom import _lapack, _lw, swe
from koopmanrom.snapshots import FieldTag


CLASSIC = kr.PhysicalConstants(
    orography_amplitude=0.0,
    mean_depth=2000.0,
    shear_depth=220.0,
    wave_depth=133.0,
    channel_length=6000e3,
    channel_width=4400e3,
)


def pytest_sessionstart(session):
    """Stop the session when the first ``PYTHONPATH`` entry that holds a
    ``koopmanrom`` package is not this checkout's ``src``: pytest's
    ``pythonpath`` setting puts that ``src`` ahead of ``PYTHONPATH``, so
    the run would test this checkout, not the tree it names."""
    src = (Path(__file__).parents[1] / "src").resolve()
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        tree = Path(entry or ".").resolve()
        if (tree / "koopmanrom" / "__init__.py").is_file():
            if tree != src:
                pytest.exit(f"PYTHONPATH names the koopmanrom of {tree}, but these tests "
                            f"import the one of {src}: run that tree's tests from its own "
                            "checkout", returncode=pytest.ExitCode.USAGE_ERROR)
            return


@pytest.fixture(scope="session", autouse=True)
def private_build_cache(tmp_path_factory):
    """Build the compiled sub-step into a directory of this session, not
    into the user's cache; tests that set XDG_CACHE_HOME keep theirs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg_cache")))
        yield


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    """Run the session on one BLAS thread, as the library runs its own
    calls: the bit-exact oracles take their references from numpy
    outside the library, and a BLAS reduction on more threads sums in
    another order.  Child processes keep the count they are given."""
    with _lapack.one_thread():
        yield


@pytest.fixture
def numpy_step(monkeypatch):
    """Run the solver on the numpy step, ``swe._step_unique``."""
    monkeypatch.setattr(swe, "_step", swe._numpy_bind)


@pytest.fixture
def compiled_step(monkeypatch):
    """Run the solver on the compiled step of ``_lw.c``, on the entry the
    loader binds (the fastest the CPU runs); skip only when there is no C
    compiler to build it."""
    if swe._select_step() is swe._numpy_bind:
        if shutil.which(_lw._CC) is None:
            pytest.skip(f"no C compiler ({_lw._CC}) to build the compiled sub-step")
        pytest.fail("a C compiler exists, but the compiled sub-step was not selected")
    monkeypatch.setattr(swe, "_step", swe._select_step())


# The step entries of _lw.c, fastest first.  A CPU that runs one runs
# every later one; a library built off x86 exports only lw_step.
ENTRIES = ("lw_step_avx512", "lw_step_avx2", "lw_step")


def runnable(lib):
    """The step entries of ``lib`` that this CPU runs, fastest first: the
    one its ``lw_entry()`` names and every later one."""
    return ENTRIES[ENTRIES.index(_lw.Kernel(lib).entry):]


def entry_kernel(lib, entry):
    """The kernel of ``lib`` on ``entry``, bound as the loader binds it on
    a CPU whose fastest entry that is: through a patched ``lw_entry``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lib, "lw_entry", lambda: entry.encode())
        return _lw.Kernel(lib)


def bind_entry(monkeypatch, entry):
    """Run the solver on the compiled entry ``entry`` where the loader
    binds a faster one; skip where the loader binds ``entry`` itself,
    which ``compiled_step`` runs, or where the CPU does not run it."""
    loaded = swe._step.__self__   # the kernel whose bind is the binder
    if loaded.entry == entry:
        pytest.skip(f"the loaded kernel binds {entry} already")
    if entry not in runnable(loaded.lib):
        pytest.skip(f"this CPU does not run {entry}")
    kernel = entry_kernel(loaded.lib, entry)
    assert kernel.entry == entry
    assert swe._compiled_matches_numpy(kernel.bind)
    monkeypatch.setattr(swe, "_step", kernel.bind)


@pytest.fixture
def portable_step(monkeypatch, compiled_step):
    """Run the solver on the portable entry of ``_lw.c``, ``lw_step``."""
    bind_entry(monkeypatch, "lw_step")


@pytest.fixture
def avx2_step(monkeypatch, compiled_step):
    """Run the solver on the AVX2 entry of ``_lw.c``, ``lw_step_avx2``."""
    bind_entry(monkeypatch, "lw_step_avx2")


@pytest.fixture(params=["numpy", "compiled", "avx2", "portable"])
def step_path(request):
    """Each step implementation in turn: numpy, the compiled entry the
    loader binds, and the AVX2 and portable compiled entries where they
    differ from it and the CPU runs them."""
    request.getfixturevalue(f"{request.param}_step")
    return request.param


@pytest.fixture(scope="session")
def classic_constants():
    return CLASSIC


@pytest.fixture(scope="session")
def paper_constants():
    return kr.PhysicalConstants()


def build_field_matrices(constants, nx, ny, n_snapshots, snapshot_dt,
                         nondimensional=True, cfl=0.8):
    """Simulate and assemble one snapshot matrix per field."""
    grid = kr.Grid.for_channel(nx, ny, constants)
    states = kr.simulate(constants, grid, snapshot_dt, n_snapshots, cfl=cfl)
    dt = snapshot_dt
    if nondimensional:
        scales = kr.ScaleSet.from_initial_state(states[0], constants)
        states = kr.nondimensionalize(states, scales)
        grid = grid.scaled(scales.l_ref)
        dt = snapshot_dt / scales.t_ref
    return {
        name: kr.assemble([getattr(s, name) for s in states], dt,
                          FieldTag[name], grid, nondimensional=nondimensional)
        for name in ("h", "u", "v")
    }


def decompose(matrix):
    """Companion fit, eigendecomposition and amplitudes for one matrix."""
    return kr.eigendecompose(kr.fit_companion(matrix), matrix)


@pytest.fixture(scope="session")
def desk_data():
    """64x32 grid, 145 snapshots at 1800 s, non-dimensionalized."""
    return build_field_matrices(CLASSIC, 64, 32, 145, 1800.0)


@pytest.fixture(scope="session")
def desk_decompositions(desk_data):
    return {name: decompose(matrix) for name, matrix in desk_data.items()}


def make_modal_data(rng, n_space, n_pairs, n_real, n_snapshots,
                    radius_range=(0.9, 1.05)):
    """Real snapshot sequence u_i = sum_k a_k lambda_k^i phi_k.

    Eigenvalues come in conjugate-closed groups: n_pairs complex pairs
    plus n_real real ones, radii drawn from radius_range.  Returns
    (data, lambdas, amplitudes, modes) with unit-norm modes.
    """
    lams, amps, modes = [], [], []
    for _ in range(n_pairs):
        r = rng.uniform(*radius_range)
        th = rng.uniform(0.15, np.pi - 0.15)
        lam = r * np.exp(1j * th)
        phi = rng.standard_normal(n_space) + 1j * rng.standard_normal(n_space)
        phi = phi / np.linalg.norm(phi)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        lams += [lam, np.conj(lam)]
        amps += [a, np.conj(a)]
        modes += [phi, np.conj(phi)]
    for _ in range(n_real):
        lam = rng.uniform(*radius_range)
        phi = rng.standard_normal(n_space)
        phi = phi / np.linalg.norm(phi)
        lams.append(lam + 0j)
        amps.append(rng.standard_normal() + 0j)
        modes.append(phi.astype(complex))
    lams = np.array(lams)
    amps = np.array(amps)
    modes = np.stack(modes, axis=1)
    powers = lams[None, :] ** np.arange(n_snapshots)[:, None]
    data = (modes @ (amps[:, None] * powers.T)).real
    return data, lams, amps, modes


def matrix_from_array(data, dt=1.0, tag=FieldTag.other):
    """Wrap a raw (Nx, Nt+1) array as a snapshot matrix (nx = Nx, ny = 1)."""
    from koopmanrom.snapshots import SnapshotMatrix
    return SnapshotMatrix(data=np.asarray(data, dtype=float), nx=data.shape[0],
                          ny=1, dt=dt, dx=1.0, dy=1.0, field_tag=tag)


def shifted_pair(matrix):
    """The shifted pair the verbatim oracle copies read: ``v0`` = columns
    0..Nt-1 and ``v1`` = columns 1..Nt, views of ``matrix.data``."""
    return SimpleNamespace(v0=matrix.v0, v1=matrix.data[:, 1:])


def rel_dev(new, old):
    """Largest entrywise deviation of ``new`` from ``old``, relative to each entry."""
    return float(np.max(np.abs(np.asarray(new) - np.asarray(old)) / np.abs(old)))


def normwise_dev(new, old):
    """Largest deviation of ``new`` from ``old``, relative to the largest entry."""
    return float(np.max(np.abs(np.asarray(new) - np.asarray(old))) / np.max(np.abs(old)))


def lead_rotation(modes, ref):
    """Unit phases that put, column by column, the entry of ``modes`` in
    the row of the largest-magnitude entry of ``ref`` on the positive
    real axis: ``modes * lead_rotation(modes, ref)`` is ``modes`` in the
    phase convention that pins each column of ``ref`` on its own largest
    entry."""
    lead = modes[np.argmax(np.abs(ref), axis=0), np.arange(ref.shape[1])]
    return np.abs(lead) / lead


def traced_peak(call):
    """Run ``call()``; return its result and the tracemalloc peak during it."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
