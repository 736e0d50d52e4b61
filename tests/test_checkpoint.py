"""Checkpoint format tests: bit-exact round trips and corruption reporting."""

import os
import stat
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sgen import (
    CheckpointError,
    ParamStore,
    RunConfig,
    Tensor,
    build_generator,
    load_checkpoint,
    save_checkpoint,
)
from sgen import checkpoint
from sgen.checkpoint import MAGIC


def _tiny_store(rng):
    store = ParamStore()
    store["alpha.weight"] = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(np.float32))
    store["alpha.bias"] = Tensor(np.zeros((1, 2, 1, 1), dtype=np.float32))
    store["beta"] = Tensor(rng.normal(size=(1, 1, 4, 4)).astype(np.float32))
    return store


def _assert_same(a: ParamStore, b: ParamStore):
    assert list(a) == list(b)
    for name in a:
        assert a[name].data.tobytes() == b[name].data.tobytes(), name


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = _tiny_store(rng)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(store, path)
    _assert_same(store, load_checkpoint(path))


def test_round_trip_survives_awkward_float_values(tmp_path):
    store = ParamStore()
    vals = np.array(
        [0.0, -0.0, 1e-38, -1e38, np.float32(1 / 3), np.pi, 2**-24, 65504.0],
        dtype=np.float32,
    ).reshape(1, 1, 2, 4)
    store["edge"] = Tensor(vals)
    path = tmp_path / "edge.ckpt"
    save_checkpoint(store, path)
    _assert_same(store, load_checkpoint(path))


def test_loaded_tensors_are_trainable_leaves(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "leaves.ckpt"
    save_checkpoint(_tiny_store(rng), path)
    loaded = load_checkpoint(path)
    assert all(t.requires_grad for t in loaded.values())
    assert all(t.grad is None for t in loaded.values())


def test_generator_round_trip_preserves_name_order(tmp_path):
    cfg = RunConfig(n_levels=2, base_channels=4, bottleneck_channels=4)
    store = build_generator(cfg, np.random.default_rng(2))
    path = tmp_path / "gen.ckpt"
    save_checkpoint(store, path)
    _assert_same(store, load_checkpoint(path))


def test_load_holds_about_one_copy_of_the_file(tmp_path):
    """Each entry is read straight into its slice of one file-sized arena:
    no second whole-file buffer, per-entry copy or cast copy on top of the
    loaded arrays."""
    path = tmp_path / "gen.ckpt"
    save_checkpoint(build_generator(RunConfig(), np.random.default_rng(2)), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sum(t.data.nbytes for t in store.values()) > 0.99 * size
    assert peak < 1.25 * size, f"peak {peak} bytes for a {size}-byte file"


def test_loaded_tensors_are_disjoint_views_of_one_arena(tmp_path):
    """Every tensor is a float32, C-contiguous, writable view of one buffer
    no larger than the file, and writing one leaves the others unchanged."""
    path = tmp_path / "gen.ckpt"
    cfg = RunConfig(n_levels=2, base_channels=4)
    save_checkpoint(build_generator(cfg, np.random.default_rng(4)), path)
    store = load_checkpoint(path)
    for name, t in store.items():
        assert t.dtype == np.float32, name
        assert t.data.flags.c_contiguous and t.data.flags.writeable, name
    base = next(iter(store.values())).data.base
    assert isinstance(base, np.ndarray) and base.nbytes <= path.stat().st_size
    assert all(t.data.base is base for t in store.values())
    before = {name: t.data.copy() for name, t in store.items()}
    for name, t in store.items():
        t.data[...] = np.nan
        for other, u in store.items():
            if other != name:
                assert u.data.tobytes() == before[other].tobytes(), (name, other)
        t.data[...] = before[name]


def test_empty_store_round_trips(tmp_path):
    path = tmp_path / "empty.ckpt"
    save_checkpoint(ParamStore(), path)
    assert len(load_checkpoint(path)) == 0


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    store = _tiny_store(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(store, p1)
    save_checkpoint(store, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_write_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    """A save that dies partway through its write leaves the previous file
    byte for byte and no temporary file behind."""
    rng = np.random.default_rng(12)
    path = tmp_path / "model.ckpt"
    save_checkpoint(_tiny_store(rng), path)
    old = path.read_bytes()

    class HalfWrite:
        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()
            return False

        def write(self, data):
            self.f.write(data[: len(data) // 2])
            raise OSError("killed mid-write")

    monkeypatch.setattr(checkpoint, "open", lambda p, mode: HalfWrite(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="killed mid-write"):
        save_checkpoint(_tiny_store(rng), path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_save_syncs_the_file_before_the_rename_and_the_directory_after(tmp_path, monkeypatch):
    """A machine crash cannot leave the renamed file without its data, or
    the rename unrecorded: the file's bytes reach the disk before the
    rename, and the directory entry after it."""
    path = tmp_path / "model.ckpt"
    store = _tiny_store(np.random.default_rng(13))
    save_checkpoint(store, tmp_path / "reference.ckpt")
    size = (tmp_path / "reference.ckpt").stat().st_size
    calls = []
    real_replace = os.replace

    def fsync(fd):
        info = os.fstat(fd)
        calls.append(("fsync", "dir" if stat.S_ISDIR(info.st_mode) else info.st_size))

    def replace(src, dst):
        calls.append(("replace", Path(dst).name))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(store, path)
    # the size shows the data was flushed from Python's buffer before the sync
    assert calls == [("fsync", size), ("replace", "model.ckpt"), ("fsync", "dir")]
    assert path.read_bytes() == (tmp_path / "reference.ckpt").read_bytes()


def test_save_refuses_non_float32_data(tmp_path):
    """A float64 parameter is refused, not cast, before anything is written."""
    rng = np.random.default_rng(13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(_tiny_store(rng), path)
    old = path.read_bytes()
    store = _tiny_store(rng)
    store["gamma"] = Tensor(rng.normal(size=(1, 1, 2, 2)))
    with pytest.raises(ValueError, match="'gamma' is float64"):
        save_checkpoint(store, path)
    assert path.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# ---------------------------------------------------------------------------
# corruption diagnostics


def _saved_blob(tmp_path, rng):
    path = tmp_path / "base.ckpt"
    save_checkpoint(_tiny_store(rng), path)
    return path, bytearray(path.read_bytes())


def test_bad_magic_is_rejected(tmp_path):
    rng = np.random.default_rng(4)
    path, blob = _saved_blob(tmp_path, rng)
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_is_rejected(tmp_path):
    rng = np.random.default_rng(5)
    path, blob = _saved_blob(tmp_path, rng)
    blob[len(MAGIC) : len(MAGIC) + 4] = struct.pack("<I", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncation_names_entry_and_offset(tmp_path):
    rng = np.random.default_rng(6)
    path, blob = _saved_blob(tmp_path, rng)
    path.write_bytes(bytes(blob[: len(blob) // 2]))
    with pytest.raises(CheckpointError, match="truncated at byte") as exc:
        load_checkpoint(path)
    # the diagnostic names what it was reading when the data ran out
    assert "alpha" in str(exc.value) or "entry" in str(exc.value)


def _fstat_reports_four_more(path, monkeypatch):
    os.truncate(path, path.stat().st_size - 4)
    real = os.fstat
    monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=real(fd).st_size + 4))


def _truncated_after_fstat(path, monkeypatch):
    real = os.fstat

    def fstat_then_truncate(fd):
        info = real(fd)
        os.truncate(path, info.st_size - 4)
        return info

    monkeypatch.setattr(os, "fstat", fstat_then_truncate)


@pytest.mark.parametrize("shrink", [_fstat_reports_four_more, _truncated_after_fstat])
def test_a_file_shorter_than_its_size_raises_with_entry_and_offset(tmp_path, monkeypatch, shrink):
    """The file ends before the size the loader took from fstat: the short
    read of the last entry's data is a truncation, not an array holding
    unread memory."""
    path = tmp_path / "short.ckpt"
    store = ParamStore()
    store["w"] = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    save_checkpoint(store, path)
    data_off = len(MAGIC) + 8 + 4 + 1 + 16  # header, name length, name "w", dims
    with monkeypatch.context() as patch:
        shrink(path, patch)
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
    assert str(exc.value) == (
        f"checkpoint truncated at byte {data_off}: needed 16 bytes for"
        " entry 'w' data ((1, 1, 2, 2)), file has 12 left"
    )


def test_truncated_header_is_rejected(tmp_path):
    path = tmp_path / "stub.ckpt"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path)


def test_implausible_name_length_is_rejected(tmp_path):
    rng = np.random.default_rng(7)
    path, blob = _saved_blob(tmp_path, rng)
    head = len(MAGIC) + 8
    blob[head : head + 4] = struct.pack("<I", 2**31)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="implausible name length"):
        load_checkpoint(path)


def test_non_utf8_name_is_rejected(tmp_path):
    rng = np.random.default_rng(8)
    path, blob = _saved_blob(tmp_path, rng)
    head = len(MAGIC) + 8
    blob[head + 4] = 0xFF  # first name byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="not UTF-8"):
        load_checkpoint(path)


def test_trailing_bytes_are_rejected(tmp_path):
    rng = np.random.default_rng(9)
    path, blob = _saved_blob(tmp_path, rng)
    path.write_bytes(bytes(blob) + b"\x00\x00\x00")
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        load_checkpoint(path)


def test_oversized_dims_are_reported_as_truncation(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "dims.ckpt"
    store = ParamStore()
    store["w"] = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    save_checkpoint(store, path)
    blob = bytearray(path.read_bytes())
    dims_off = len(MAGIC) + 8 + 4 + 1  # header, name length, name "w"
    blob[dims_off : dims_off + 16] = struct.pack("<4I", 1, 1, 1000, 1000)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=r"entry 'w' data") as exc:
        load_checkpoint(path)
    assert "truncated" in str(exc.value)


def test_duplicate_entry_name_is_rejected_with_its_offset(tmp_path):
    path = tmp_path / "dup.ckpt"
    store = ParamStore()
    store["w"] = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    save_checkpoint(store, path)
    blob = path.read_bytes()
    entry = blob[len(MAGIC) + 8 :]
    # the same entry twice, with the header's count raised to 2
    path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + entry + entry)
    second = len(MAGIC) + 8 + len(entry)
    with pytest.raises(CheckpointError, match=rf"entry 1 at byte {second}: duplicate name 'w'"):
        load_checkpoint(path)


def test_dims_no_array_can_have_name_entry_and_offset(tmp_path):
    """A zero dim beside huge sides passes the size walk (the product is 0)
    but describes no array numpy can make: a CheckpointError, not numpy's
    bare reshape error."""
    path = tmp_path / "dims.ckpt"
    store = ParamStore()
    store["w"] = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    save_checkpoint(store, path)
    entry_off = len(MAGIC) + 8
    dims_off = entry_off + 4 + 1
    blob = path.read_bytes()[:dims_off] + struct.pack("<4I", 50331648, 33554432, 33554432, 0)
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=rf"entry 'w' at byte {entry_off}: no array has dims"):
        load_checkpoint(path)


def test_zero_size_entries_round_trip(tmp_path):
    store = ParamStore()
    store["empty"] = Tensor(np.zeros((0, 3, 3, 3), dtype=np.float32))
    store["w"] = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32))
    path = tmp_path / "zero.ckpt"
    save_checkpoint(store, path)
    loaded = load_checkpoint(path)
    assert loaded["empty"].shape == (0, 3, 3, 3)
    _assert_same(store, loaded)


def test_every_truncation_and_byte_substitution_loads_or_raises_checkpoint_error(tmp_path):
    """Fuzz a two-entry file: a zero-initialized gate weight and a random
    bias.  Each byte is replaced by its two neighbours, its top bit
    flipped and two seeded random values; no case may escape as any error
    but CheckpointError."""
    rng = np.random.default_rng(16)
    store = ParamStore()
    store["gate.weight"] = Tensor(np.zeros((2, 2, 3, 3), dtype=np.float32))
    store["gate.bias"] = Tensor(rng.normal(size=(1, 2, 1, 1)).astype(np.float32))
    path = tmp_path / "fuzz.ckpt"
    save_checkpoint(store, path)
    blob = path.read_bytes()
    cases = [blob[:i] for i in range(len(blob))]
    for i, byte in enumerate(blob):
        for value in {(byte + 1) % 256, (byte - 1) % 256, byte ^ 0x80, *rng.integers(0, 256, size=2).tolist()}:
            if value != byte:
                cases.append(blob[:i] + bytes([value]) + blob[i + 1 :])
    escaped = []
    for case in cases:
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass
        except Exception as exc:  # any other type is the failure
            escaped.append(f"{type(exc).__name__}: {exc}")
    assert len(cases) >= 4 * len(blob)  # at least three substitutions per byte
    assert escaped == []
