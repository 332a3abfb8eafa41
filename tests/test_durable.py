"""The one durable-write helper and the writers that go through it.

``atomic_write`` is tmp -> write -> fsync -> ``os.replace`` -> directory
fsync; the directory fsync is observed by recording every ``os.fsync``
call whose descriptor is a directory.
"""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.cluster.checkpoint import read_checkpoint_field, write_checkpoint
from repro.cluster.mpi_sim import SimWorld
from repro.resilience.durable import atomic_write
from repro.service.cache import ResultCache
from repro.validation.baselines import CaseBaseline, load_baseline, save_baseline

pytestmark = pytest.mark.tier1


@pytest.fixture
def syscalls(monkeypatch):
    """Ordered log of fsync (file / dir) and replace calls."""
    log: list[tuple[str, object]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        kind = "fsync_dir" if stat.S_ISDIR(st.st_mode) else "fsync_file"
        log.append((kind, (st.st_dev, st.st_ino)))
        real_fsync(fd)

    def replace(src, dst):
        log.append(("replace", str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return log


def inode(path) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino


def test_atomic_write_sequence(tmp_path, syscalls):
    path = str(tmp_path / "state.bin")
    assert atomic_write(path, b"ab", b"cd") == path
    assert (tmp_path / "state.bin").read_bytes() == b"abcd"
    assert not os.path.exists(path + ".tmp")
    assert [k for k, _ in syscalls] == ["fsync_file", "replace", "fsync_dir"]
    assert syscalls[-1][1] == inode(tmp_path)


def test_failed_rename_keeps_previous_generation(tmp_path, monkeypatch):
    path = str(tmp_path / "state.bin")
    atomic_write(path, b"old")

    def crash(src, dst):
        raise OSError("crash between write and rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        atomic_write(path, b"new")
    assert (tmp_path / "state.bin").read_bytes() == b"old"
    assert (tmp_path / "state.bin.tmp").read_bytes() == b"new"  # sweepable


def test_cache_put_is_durable(tmp_path, syscalls):
    cache = ResultCache(str(tmp_path / "cache"))
    path = cache.put("k" * 64, {"x": np.arange(3)})
    assert ("replace", path) in syscalls
    assert ("fsync_dir", inode(tmp_path / "cache")) in syscalls
    assert cache.get("k" * 64)[1]["x"].tolist() == [0, 1, 2]


def test_save_baseline_is_durable(tmp_path, syscalls):
    baseline = CaseBaseline(case="demo", metrics={"m": 1.5})
    path = save_baseline(baseline, str(tmp_path))
    assert ("replace", path) in syscalls
    assert ("fsync_dir", inode(tmp_path)) in syscalls
    assert load_baseline("demo", str(tmp_path)).metrics == {"m": 1.5}


def test_checkpoint_promotes_through_helper(tmp_path, syscalls):
    path = str(tmp_path / "ckpt_000001.rck")
    field = np.ones((4, 4, 4, 7), dtype=np.float32)
    SimWorld(1).run(lambda comm: write_checkpoint(
        comm, path, field, (0, 0, 0), t=0.5, step=1))
    kinds = [k for k, _ in syscalls]
    # Rank data reaches the disk before the rename, the rename before
    # the directory fsync.
    assert kinds == ["fsync_file", "replace", "fsync_dir"]
    assert syscalls[-1][1] == inode(tmp_path)
    restored, t, step = read_checkpoint_field(path)
    np.testing.assert_array_equal(restored, field)
    assert (t, step) == (0.5, 1)
