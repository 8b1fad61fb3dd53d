"""Property tests: every file reader returns or raises FormatError on mutated input.

Each test starts from a valid EMB1, PQC1, SSPQ or label file and applies a
few random edits: set a byte, cut the file, insert bytes, or overwrite a
header field with an arbitrary u32. The SSPQ header is also drawn whole from
a JSON-value strategy. Runs are derandomized so the suite stays deterministic.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sspq.embeddings import export_embeddings, import_embeddings, read_labels, write_labels
from sspq.encoder import CHECKPOINT_MAGIC, encoder_init, load_checkpoint, save_checkpoint
from sspq.errors import FormatError
from sspq.quantizer import ProductCodebook, codebook_load, codebook_save

FUZZ = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _apply(blob: bytes, edits) -> bytes:
    out = bytearray(blob)
    for op, pos, value in edits:
        pos = min(pos, len(out))
        if op == "set" and pos < len(out):
            out[pos] = value
        elif op == "cut":
            del out[pos:]
        elif op == "insert":
            out[pos:pos] = value
        elif op == "u32":
            out[pos : pos + 4] = struct.pack("<I", value)
    return bytes(out)


def mutations(valid: bytes, u32_fields: tuple[int, ...]):
    """The valid bytes after one to four random edits."""
    n = len(valid)
    edit = st.one_of(
        st.tuples(st.just("set"), st.integers(0, n - 1), st.integers(0, 255)),
        st.tuples(st.just("cut"), st.integers(0, n), st.none()),
        st.tuples(st.just("insert"), st.integers(0, n), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("u32"), st.sampled_from(u32_fields), st.integers(0, 2**32 - 1)),
    )
    return st.lists(edit, min_size=1, max_size=4).map(lambda edits: _apply(valid, edits))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)
SSPQ_HEADERS = JSON_VALUES | st.fixed_dictionaries(
    {
        "layer_sizes": st.lists(st.integers(-1, 3), max_size=4) | JSON_VALUES,
        "activation": st.sampled_from(["tanh", "relu", "identity", "gelu"]) | JSON_VALUES,
    },
    optional={"extra": JSON_VALUES},
)


def returns_or_format_error(reader, path, blob: bytes) -> None:
    path.write_bytes(blob)
    try:
        reader(path)
    except FormatError:
        pass


def read_four_labels(path):
    """``read_labels`` with the row count of the valid sidecar; every row is parsed before the count is checked."""
    return read_labels(path, expected_rows=4)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid bytes of each format, and a scratch path the tests overwrite."""
    rng = np.random.default_rng(0)
    base = tmp_path_factory.mktemp("fuzz")
    writers = {
        "emb": lambda p: export_embeddings(rng.normal(size=(3, 4)), p),
        "pqc": lambda p: codebook_save(ProductCodebook(rng.normal(size=(2, 4, 2))), p),
        "sspq": lambda p: save_checkpoint(encoder_init(4, [3], 2, seed=0), p, extra={"a": 1}),
        "labels": lambda p: write_labels(np.array([3, 1, 4, 1]), p),
    }
    blobs = {}
    for name, write in writers.items():
        write(base / name)
        blobs[name] = (base / name).read_bytes()
    blobs["scratch"] = base / "input"
    return blobs


@FUZZ
@given(data=st.data())
def test_emb1_reader(valid, data):
    blob = data.draw(mutations(valid["emb"], (4, 8)))  # rows, dim
    returns_or_format_error(import_embeddings, valid["scratch"], blob)


@FUZZ
@given(data=st.data())
def test_pqc1_reader(valid, data):
    blob = data.draw(mutations(valid["pqc"], (4, 8, 12)))  # M, K, d
    returns_or_format_error(codebook_load, valid["scratch"], blob)


@FUZZ
@given(data=st.data())
def test_sspq_reader_mutated_bytes(valid, data):
    blob = data.draw(mutations(valid["sspq"], (4,)))  # header length
    returns_or_format_error(load_checkpoint, valid["scratch"], blob)


@FUZZ
@given(header=SSPQ_HEADERS, params=st.integers(0, 12))
def test_sspq_reader_drawn_header(valid, header, params):
    # Zero-valued float64 parameter blocks; some counts match small layer sizes.
    header_bytes = json.dumps(header).encode()
    blob = CHECKPOINT_MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes
    returns_or_format_error(load_checkpoint, valid["scratch"], blob + bytes(8 * params))


@FUZZ
@given(data=st.data())
def test_label_reader_mutated_bytes(valid, data):
    blob = data.draw(mutations(valid["labels"], (0,)))
    returns_or_format_error(read_four_labels, valid["scratch"], blob)


@FUZZ
@given(data=st.data())
def test_label_reader_mutated_text(valid, data):
    text = valid["labels"].decode()
    edits = st.lists(
        st.tuples(st.integers(0, len(text)), st.integers(0, 3), st.text(max_size=4)),
        min_size=1,
        max_size=4,
    )
    for pos, cut, insert in data.draw(edits):
        text = text[:pos] + insert + text[pos + cut :]
    returns_or_format_error(read_four_labels, valid["scratch"], text.encode())
