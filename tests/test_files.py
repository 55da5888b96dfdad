"""Every output lands whole: the one writer (``_files.Replacement``), and
each write of every command failing once.

The commands run in a child process that ignores SIGXFSZ and caps its
own file size (RLIMIT_FSIZE), so a write past the cap fails with EFBIG
and leaves this process alone.  An audit hook applies the cap while one
chosen output's temporary file exists, so each output of a command
fails in turn, the others landing as usual.
"""

import contextlib
import errno
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import koopmanrom
from koopmanrom._files import Replacement
from koopmanrom.cli import main

CONFIGS = Path(__file__).parents[1] / "configs"
DESK = CONFIGS / "desk_channel.cfg"


def test_failed_block_leaves_the_target_and_no_temporary(tmp_path):
    target = tmp_path / "report.csv"
    target.write_text("old\n")
    with pytest.raises(ValueError), Replacement(target, text=True) as fh:
        fh.write("new,")
        raise ValueError("the caller fails half-way")
    assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]
    assert target.read_text() == "old\n"


def test_symlink_is_replaced_by_a_regular_file(tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    target = tmp_path / "report.csv"
    target.symlink_to(kept)
    with Replacement(target, text=True) as fh:
        fh.write("new\n")
    assert not target.is_symlink() and target.read_text() == "new\n"
    assert kept.read_text() == "old\n"


def test_rename_error_names_the_target(tmp_path):
    target = tmp_path / "store.npz"
    (target / "inside").mkdir(parents=True)   # a non-empty directory in the way
    with pytest.raises(OSError) as exc, Replacement(target) as fh:
        fh.write(b"bytes")
    assert exc.value.filename == str(target) and exc.value.filename2 is None
    assert str(exc.value).endswith(f": {str(target)!r}")
    assert [p.name for p in tmp_path.iterdir()] == ["store.npz"]


# Runs cli.main(argv + ["--out", dir]) once without a cap into "base",
# then, for each k of its fault list, into a copy of "prev" with the cap
# at half the size of the k-th output that "base" opened.  Prints, as
# JSON, the outputs in the order their temporary files were opened and
# the (exit code, stderr) of each run.
FAULT_CHILD = """if True:
    import contextlib, io, json, os, re, resource, shutil, signal, sys
    from koopmanrom.cli import main

    argv, faults, work = json.loads(sys.argv[1])
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
    temps, fault = [], {"at": 0, "cap": hard}

    def cap(limit):
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    def hook(event, args):
        if event == "open" and isinstance(args[0], (str, os.PathLike)):
            name = os.fspath(args[0])
            if re.fullmatch(r"[.].+[.][0-9a-f]{16}[.]tmp", os.path.basename(name)):
                temps.append(name)
                if len(temps) == fault["at"]:
                    cap(fault["cap"])
        elif (event in ("os.rename", "os.remove") and len(temps) >= fault["at"] > 0
              and os.fspath(args[0]) == temps[fault["at"] - 1]):
            cap(hard)

    def run(out):
        temps.clear()
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", out])
        cap(hard)
        return code, err.getvalue()

    sys.addaudithook(hook)
    runs = [run(f"{work}/base")]
    outputs = [os.path.basename(t)[1:-21] for t in temps]
    for k in faults or range(1, len(outputs) + 1):
        shutil.copytree(f"{work}/prev", f"{work}/{k}")
        fault.update(at=k, cap=os.path.getsize(f"{work}/base/{outputs[k - 1]}") // 2)
        runs.append(run(f"{work}/{k}"))
    print(json.dumps([outputs, runs]))
    """


def faults_of(argv, faults, work: Path):
    """(outputs, [(exit code, stderr)] of the base run then of each
    fault) of ``FAULT_CHILD`` on one BLAS thread."""
    src = str(Path(koopmanrom.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FAULT_CHILD,
         json.dumps([list(map(str, argv)), faults, str(work)])],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(map(str, argv)))


@pytest.fixture(scope="module")
def desk_inputs(tmp_path_factory):
    """KSNP files of the desk config ("data"), and of a shorter run of it
    sampled at another interval ("prev"), whose every output differs
    from the desk run's."""
    root = tmp_path_factory.mktemp("faults")
    other = root / "other.cfg"
    other.write_text(DESK.read_text() + "snapshot_dt = 1500\nn_snapshots = 121\n")
    for name, cfg in (("data", DESK), ("prev", other)):
        assert quiet_main(["simulate", "--config", cfg, "--out", root / name]) == 0
    return root


def files(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("argv, faults", [
    (["simulate"], [1]),
    (["simulate", "--field", "u"], [1]),
    (["simulate", "--field", "v"], [1]),
    (["rom"], None),
    (["reconstruct", "--field", "h", "--index", "7"], None),
    (["vorticity", "--index", "7"], None),
], ids=["simulate", "simulate-u", "simulate-v", "rom", "reconstruct", "vorticity"])
def test_each_write_failing_leaves_no_partial_file(tmp_path, desk_inputs, argv, faults):
    """Each output of the command fails once, half written, over the
    outputs of an earlier run.  The run exits 3 naming the output, or
    0 in silence where only a store was skipped.  Outputs that landed
    before the failure (after it too, for a store) are those of a run
    that did not fail; every other file is the earlier run's, or absent
    as it was, and no temporary file is left.  A simulate's three files
    are written side by side, so h, the first of each snapshot, is the
    one that fails; --field isolates u and v."""
    argv = [*argv, "--config", DESK]
    if argv[0] == "simulate":
        shutil.copytree(desk_inputs / "prev", tmp_path / "prev")
    else:
        assert quiet_main([*argv, "--data", desk_inputs / "prev",
                           "--out", tmp_path / "prev"]) == 0
        argv += ["--data", desk_inputs / "data"]
    outputs, ((base_code, base_err), *runs) = faults_of(argv, faults, tmp_path)
    assert base_code == 0 and base_err == ""
    base, prev = files(tmp_path / "base"), files(tmp_path / "prev")
    assert sorted(base) == sorted(outputs)
    assert all(prev[name] != base[name] for name in set(prev) & set(base))
    efbig = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
    for k, (code, err) in zip(faults or range(1, len(outputs) + 1), runs):
        target = outputs[k - 1]
        skipped = target.endswith(".npz")
        landed = set(outputs[:k - 1]) | (set(outputs[k:]) if skipped else set())
        named = f"error: {efbig}: {str(tmp_path / str(k) / target)!r}\n"
        assert (code, err) == ((0, "") if skipped else (3, named)), target
        found = files(tmp_path / str(k))
        assert set(found) <= set(base) | set(prev), (target, sorted(found))
        for name in set(base) | set(prev):
            assert found.get(name) == (base[name] if name in landed else prev.get(name)), \
                (target, name)
