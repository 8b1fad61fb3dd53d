import ast
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import sspq.fileio
from sspq.embeddings import export_embeddings, import_embeddings
from sspq.encoder import encoder_init, load_checkpoint, save_checkpoint
from sspq.fileio import write_atomic, write_csv_atomic
from sspq.quantizer import ProductCodebook, codebook_load, codebook_save, train_product_codebook

SRC = Path(__file__).resolve().parents[1] / "src" / "sspq"


class TestWriteAtomic:
    def test_replaces_previous_content(self, tmp_path):
        path = tmp_path / "a.bin"
        write_atomic(path, b"old")
        write_atomic(path, b"new")
        assert path.read_bytes() == b"new"
        write_atomic(path, b"n", b"", np.array([[0x65, 0x77]], dtype=np.uint8))  # chunks in turn
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


class TestLayouts:
    """Each file the library writes equals the layout assembled here, and reads back with the same bits."""

    def test_emb1(self, tmp_path, rng):
        x = rng.normal(size=(5, 3))
        path = tmp_path / "x.emb"
        export_embeddings(x, path)
        assert path.read_bytes() == b"EMB1" + struct.pack("<IIB", 5, 3, 0) + x.astype("<f4").tobytes()
        back = import_embeddings(path)
        assert back.tobytes() == x.astype("<f4").astype(np.float64).tobytes()

    def test_pqc1(self, tmp_path, rng):
        codebook = ProductCodebook(rng.normal(size=(2, 4, 3)))
        path = tmp_path / "cb.pqc"
        codebook_save(codebook, path)
        cents = codebook.stacked()
        assert path.read_bytes() == b"PQC1" + struct.pack("<III", 2, 4, 6) + cents.astype("<f4").tobytes()
        assert codebook_load(path).stacked().tobytes() == cents.tobytes()

    def test_sspq(self, tmp_path):
        enc = encoder_init(4, [3], 2, seed=0)
        path = tmp_path / "q.sspq"
        save_checkpoint(enc, path, extra={"epochs": 2})
        header = json.dumps(
            {"activation": "tanh", "extra": {"epochs": 2}, "layer_sizes": [4, 3, 2]}, sort_keys=True
        ).encode()
        params = b"".join(p.astype("<f8").tobytes() for p in enc.params)
        assert path.read_bytes() == b"SSPQ" + struct.pack("<I", len(header)) + header + params
        back, extra = load_checkpoint(path)
        assert extra == {"epochs": 2} and back.layer_sizes == [4, 3, 2]
        assert [p.tobytes() for p in back.params] == [p.tobytes() for p in enc.params]


def test_only_fileio_parses_bytes():
    # The container rule is read in one place: no format module unpacks a
    # header or views a payload itself.
    parsers = {("np", "frombuffer"), ("struct", "unpack"), ("struct", "unpack_from")}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in parsers
            ):
                calls.append((path.name, f"{path.name}:{node.lineno}: {ast.unparse(node.func)}"))
    assert {name for name, _ in calls} == {"fileio.py"}, [where for _, where in calls]
