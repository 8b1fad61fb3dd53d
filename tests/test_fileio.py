import os

import numpy as np
import pytest

import sspq.fileio
from sspq.fileio import write_atomic, write_csv_atomic
from sspq.quantizer import codebook_load, codebook_save, train_product_codebook


class TestWriteAtomic:
    def test_replaces_previous_content(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, b"old")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, b"old")
        with pytest.raises(TypeError):
            write_atomic(path, "not bytes")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["a.bin"]

    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, rng):
        path = tmp_path / "cb.pqc"
        old = train_product_codebook(rng.normal(size=(10, 4)), m=2, k=2, seed=0)
        codebook_save(old, path)
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(sspq.fileio.os, "replace", crash)
        new = train_product_codebook(rng.normal(size=(10, 4)), m=2, k=2, seed=1)
        with pytest.raises(OSError):
            codebook_save(new, path)
        assert path.read_bytes() == before
        np.testing.assert_array_equal(codebook_load(path).stacked(), old.stacked())
        assert os.listdir(tmp_path) == ["cb.pqc"]

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv_atomic(path, [["m", "map"], [None, "0.5"], [2, "0.25"]])
        assert path.read_bytes() == b"m,map\r\n,0.5\r\n2,0.25\r\n"
