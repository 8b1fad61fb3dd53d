"""Every exported entry point fails typed on a wrong-kind argument, and only
the search layer names ``EmbeddingMatrix``.

The README promises that the library raises only ``SspqError`` subclasses.
``test_errors.py`` checks the ``raise`` statements; the properties here check
what NumPy or Python would raise past them: each call given a 1-D or 3-D
array, a list, or a NaN row in place of one array, or a float or bool seed,
must return or raise an ``SspqError``. So must each labels argument given
such a value, and a ``TrainConfig`` with one field of the wrong kind, together
with the training run it configures. Each integer or real argument given a
float, a bool, ``None``, a string or a value below its minimum must raise
``BadConfigError`` unless the value is valid, and so must a list of layer
sizes or parameters replaced whole by a value that is not a list or tuple.
Real arguments and config fields also get fractions, and ints and fractions
beyond float range.
"""

import ast
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspq
from sspq.errors import BadConfigError, SspqError

SRC = Path(__file__).resolve().parents[1] / "src" / "sspq"
PERFBENCH = SRC.parents[1] / "perfbench"
PROPERTY = settings(derandomize=True, database=None, max_examples=100, deadline=None)


class Valid:
    """Small valid arguments; each case replaces one of them."""

    def __init__(self, tmp: Path) -> None:
        rng = np.random.default_rng(0)
        self.raw = rng.normal(size=(12, 6))
        self.oracle = sspq.make_oracle(6, 8, seed=1)
        self.x = sspq.oracle_encode(self.oracle, self.raw)
        self.stack = self.x[None]
        self.labels = np.arange(12) % 3
        self.codebook = sspq.train_product_codebook(self.x, m=2, k=4, seed=2)
        self.centroids = self.codebook.stacked()
        self.codes = sspq.encode_matrix(self.codebook, self.x)
        self.hits = self.labels[:3, None] == self.labels[None]
        self.aps = np.array([0.5, 1.0])
        self.enc = sspq.encoder_init(6, [5], 8, seed=3)
        self.weight = self.enc.params[0]
        self.cfg = sspq.TrainConfig(epochs=1, batch_size=4, seed=4)
        self.path = tmp / "x.emb"


@pytest.fixture(scope="module")
def valid(tmp_path_factory) -> Valid:
    return Valid(tmp_path_factory.mktemp("boundary"))


# case -> (the Valid attribute it replaces, the call given the replacement)
ARRAY_CASES = {
    "EmbeddingMatrix": ("x", lambda v, a: sspq.EmbeddingMatrix(a)),
    "export_embeddings": ("x", lambda v, a: sspq.export_embeddings(a, v.path)),
    "QueryEncoder": ("weight", lambda v, a: sspq.QueryEncoder(v.enc.layer_sizes, [a, *v.enc.params[1:]])),
    "forward_matrix": ("raw", lambda v, a: sspq.forward_matrix(v.enc, a)),
    "oracle_encode": ("raw", lambda v, a: sspq.oracle_encode(v.oracle, a)),
    "EvalReport": ("aps", lambda v, a: sspq.EvalReport(a)),
    "average_precision": ("hits", lambda v, a: sspq.average_precision(a)),
    "exact_search-queries": ("x", lambda v, a: sspq.exact_search(a, v.x)),
    "exact_search-gallery": ("x", lambda v, a: sspq.exact_search(v.x[:3], a)),
    "evaluate-queries": ("x", lambda v, a: sspq.evaluate(a, v.x, v.labels, v.labels)),
    "evaluate-gallery": ("x", lambda v, a: sspq.evaluate(v.x, a, v.labels, v.labels)),
    "evaluate_pq-queries": ("x", lambda v, a: sspq.evaluate_pq(a, v.codes, v.codebook, v.labels, v.labels)),
    "evaluate_pq-codes": ("codes", lambda v, a: sspq.evaluate_pq(v.x, a, v.codebook, v.labels, v.labels)),
    "evaluate-query_labels": ("labels", lambda v, a: sspq.evaluate(v.x, v.x, a, v.labels)),
    "evaluate-gallery_labels": ("labels", lambda v, a: sspq.evaluate(v.x, v.x, v.labels, a)),
    "evaluate_pq-query_labels": ("labels", lambda v, a: sspq.evaluate_pq(v.x, v.codes, v.codebook, a, v.labels)),
    "evaluate_pq-gallery_labels": ("labels", lambda v, a: sspq.evaluate_pq(v.x, v.codes, v.codebook, v.labels, a)),
    "ProductCodebook": ("centroids", lambda v, a: sspq.ProductCodebook(a)),
    "encode_matrix": ("x", lambda v, a: sspq.encode_matrix(v.codebook, a)),
    "kmeans_fit": ("stack", lambda v, a: sspq.kmeans_fit(a, 3, seed=0)),
    "train_product_codebook": ("x", lambda v, a: sspq.train_product_codebook(a, m=2, k=4, seed=0)),
    "train_query_model-gallery": ("x", lambda v, a: sspq.train_query_model(v.enc, a, v.raw, v.codebook, v.cfg)),
    "train_query_model-raw": ("raw", lambda v, a: sspq.train_query_model(v.enc, v.x, a, v.codebook, v.cfg)),
}

SEED_CASES = {
    "kmeans_fit": lambda v, s: sspq.kmeans_fit(v.stack, 3, seed=s),
    "train_product_codebook": lambda v, s: sspq.train_product_codebook(v.x, m=2, k=4, seed=s),
    "encoder_init": lambda v, s: sspq.encoder_init(6, [5], 8, seed=s),
    "make_oracle": lambda v, s: sspq.make_oracle(6, 8, seed=s),
    "gen_mixture": lambda v, s: sspq.gen_mixture(3, 4, 6, 0.1, s, 8, 4),
    "TrainConfig": lambda v, s: sspq.TrainConfig(seed=s),
}

CONFIG_FIELDS = ("tau_g", "tau_q", "learning_rate", "epochs", "batch_size", "seed",
                 "loss_kind", "similarity_kind", "weight_decay")
REAL_FIELDS = {"tau_g", "tau_q", "learning_rate", "weight_decay"}

# Real numbers that are not floats. An int beyond float range goes only to a
# real argument: an int argument would take it as valid.
FRACTIONS = st.fractions(-4, 4, max_denominator=1000)
BEYOND_FLOAT = st.integers(2**1024, 2**1100).flatmap(lambda big: st.sampled_from([big, -big, Fraction(big)]))

# case -> (the argument's minimum, the call given a drawn value). Every
# argument is an int but those in REAL_CASES, which are real numbers.
NUMBER_CASES = {
    "encoder_init-d_in": (1, lambda v, n: sspq.encoder_init(n, [5], 8, seed=3)),
    "encoder_init-hidden": (1, lambda v, n: sspq.encoder_init(6, [n], 8, seed=3)),
    "encoder_init-d_out": (1, lambda v, n: sspq.encoder_init(6, [5], n, seed=3)),
    "make_oracle-d_in": (1, lambda v, n: sspq.make_oracle(n, 8, seed=1)),
    "make_oracle-emb_dim": (1, lambda v, n: sspq.make_oracle(6, n, seed=1)),
    "gen_mixture-num_classes": (2, lambda v, n: sspq.gen_mixture(n, 4, 6, 0.1, 0, 8, 4)),
    "gen_mixture-per_class": (4, lambda v, n: sspq.gen_mixture(3, n, 6, 0.1, 0, 8, 4)),
    "gen_mixture-d_in": (1, lambda v, n: sspq.gen_mixture(3, 4, n, 0.1, 0, 8, 4)),
    "gen_mixture-cluster_std": (0.0, lambda v, n: sspq.gen_mixture(3, 4, 6, n, 0, 8, 4)),
    "gen_mixture-anchor_count": (1, lambda v, n: sspq.gen_mixture(3, 4, 6, 0.1, 0, n, 4)),
    "gen_mixture-train_per_class": (1, lambda v, n: sspq.gen_mixture(3, 4, 6, 0.1, 0, 8, n)),
    "kmeans_fit-k": (1, lambda v, n: sspq.kmeans_fit(v.stack, n, seed=0)),
    "kmeans_fit-max_iters": (1, lambda v, n: sspq.kmeans_fit(v.stack, 3, seed=0, max_iters=n)),
    "train_product_codebook-m": (1, lambda v, n: sspq.train_product_codebook(v.x, m=n, k=4, seed=0)),
    "train_product_codebook-k": (1, lambda v, n: sspq.train_product_codebook(v.x, m=2, k=n, seed=0)),
    "memory_report-n": (0, lambda v, n: sspq.memory_report(n, 2, 4)),
    "memory_report-m": (1, lambda v, n: sspq.memory_report(12, n, 4)),
    "memory_report-k": (1, lambda v, n: sspq.memory_report(12, 2, n)),
}
REAL_CASES = {"gen_mixture-cluster_std"}


def accepts(case, value) -> bool:
    """Whether a drawn value is valid for the case's argument; no drawn int is."""
    # The comparison is exact, so a NaN, an infinity and a number beyond float range fail it.
    return (case in REAL_CASES and type(value) in (int, float, Fraction)
            and NUMBER_CASES[case][0] <= value <= sys.float_info.max)


@st.composite
def wrong_kind(draw, valid_array):
    """A 1-D or 3-D array, the valid array as a list, or it with a NaN row."""
    kind = draw(st.sampled_from(["1-D", "3-D", "list", "nan-row"]))
    if kind in ("1-D", "3-D"):
        shape = draw(st.lists(st.integers(0, 4), min_size=int(kind[0]), max_size=int(kind[0])))
        return np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=shape)
    if kind == "list":
        return np.asarray(valid_array).tolist()
    bad = np.array(valid_array, dtype=np.float64)
    bad[draw(st.integers(0, len(bad) - 1))] = np.nan
    return bad


def returns_or_sspq_error(call, *args) -> None:
    try:
        call(*args)
    except SspqError:
        pass


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
@PROPERTY
@given(data=st.data())
def test_wrong_kind_array_fails_typed(valid, case, data):
    attr, call = ARRAY_CASES[case]
    returns_or_sspq_error(call, valid, data.draw(wrong_kind(getattr(valid, attr))))


@pytest.mark.parametrize("case", sorted(SEED_CASES))
@PROPERTY
@given(seed=st.one_of(st.floats(), st.booleans()))
def test_float_or_bool_seed_fails_typed(valid, case, seed):
    returns_or_sspq_error(SEED_CASES[case], valid, seed)


@pytest.mark.parametrize("field", CONFIG_FIELDS)
@PROPERTY
@given(data=st.data())
def test_wrong_kind_config_field_fails_typed(valid, field, data):
    # TrainConfig is the only check on a run's settings: a value it accepts
    # must train, or fail typed, through the unchecked per-step kernels.
    value = data.draw(st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3),
                                st.integers(-2, 3), st.lists(st.integers(0, 2), max_size=2), FRACTIONS,
                                *([BEYOND_FLOAT] if field in REAL_FIELDS else [])))

    def construct_and_train():
        cfg = sspq.TrainConfig(**{"epochs": 1, "batch_size": 4, "seed": 4, field: value})
        sspq.train_query_model(valid.enc, valid.x, valid.raw, valid.codebook, cfg)

    returns_or_sspq_error(construct_and_train)


@pytest.mark.parametrize("case", sorted(NUMBER_CASES))
@PROPERTY
@given(data=st.data())
def test_wrong_kind_number_fails_typed(valid, case, data):
    low, call = NUMBER_CASES[case]
    value = data.draw(st.one_of(
        st.floats(width=32),  # no valid real this wide overflows a float64 row
        st.integers(-3, 3).map(float),
        st.booleans(),
        st.none(),
        st.text(max_size=3),
        st.integers(max_value=-1).map(lambda below: low + below),
        *([FRACTIONS, BEYOND_FLOAT] if case in REAL_CASES else []),
    ))
    if accepts(case, value):
        call(valid, value)
    else:
        with pytest.raises(BadConfigError):
            call(valid, value)


# The NUMBER_CASES whose int is an array size: above EMB_MAX_SIZE it fails
# typed, before NumPy is asked for an array no machine can hold.
SIZE_CASES = ["encoder_init-d_in", "encoder_init-hidden", "encoder_init-d_out", "make_oracle-d_in",
              "make_oracle-emb_dim", "gen_mixture-num_classes", "gen_mixture-per_class", "gen_mixture-d_in",
              "gen_mixture-anchor_count", "gen_mixture-train_per_class", "kmeans_fit-k", "train_product_codebook-k"]


@pytest.mark.parametrize("case", SIZE_CASES)
@pytest.mark.parametrize("size", [2**32, 2**40, 2**62, 10**400], ids=["2**32", "2**40", "2**62", "10**400"])
def test_size_no_array_can_hold_fails_typed(valid, case, size):
    with pytest.raises(BadConfigError, match="<= 4294967295"):
        NUMBER_CASES[case][1](valid, size)


def test_seeds_stay_unbounded(valid):
    seed = 2**70
    assert sspq.encoder_init(6, [5], 8, seed=seed).layer_sizes == [6, 5, 8]
    assert sspq.kmeans_fit(valid.stack, 3, seed=seed).centroids.shape == (1, 3, 8)
    assert len(sspq.gen_mixture(3, 4, 6, 0.1, seed, 8, 4)) == 4


# case -> the call given a drawn value in place of its whole list of layer sizes
SIZES_CASES = {
    "encoder_init-hidden": lambda v, s: sspq.encoder_init(6, s, 8, seed=3),
    "QueryEncoder-layer_sizes": lambda v, s: sspq.QueryEncoder(s, v.enc.params),
}


@pytest.mark.parametrize("case", sorted(SIZES_CASES))
@PROPERTY
@given(sizes=st.one_of(
    st.none(), st.integers(-3, 8), st.floats(), st.booleans(), st.text(max_size=3),
    st.dictionaries(st.integers(1, 8), st.integers(1, 8), max_size=2),
    st.lists(st.one_of(st.integers(-1, 8), st.floats(), st.none(), st.text(max_size=2)), max_size=4),
))
def test_wrong_kind_layer_sizes_fails_typed(valid, case, sizes):
    # Anything but a list fails the container check; a list returns or fails
    # typed, at an entry (BadConfigError) or at the parameter shapes.
    if isinstance(sizes, list):
        returns_or_sspq_error(SIZES_CASES[case], valid, sizes)
    else:
        with pytest.raises(BadConfigError):
            SIZES_CASES[case](valid, sizes)


# case -> the call given a drawn value in place of its whole list of parameters
PARAMS_CASES = {
    "QueryEncoder-params": lambda v, p: sspq.QueryEncoder(v.enc.layer_sizes, p),
}


@pytest.mark.parametrize("case", sorted(PARAMS_CASES))
@PROPERTY
@given(params=st.one_of(
    st.none(), st.integers(-3, 8), st.floats(), st.booleans(), st.text(max_size=3),
    st.dictionaries(st.integers(0, 2), st.floats(), max_size=2),
    st.lists(st.one_of(st.floats(), st.none(), st.text(max_size=2), st.lists(st.floats(), max_size=3)),
             max_size=3),
))
def test_wrong_kind_parameter_list_fails_typed(valid, case, params):
    # Anything but a list fails the container check; no drawn list holds
    # arrays of the encoder's shapes, so it fails typed at an entry
    # (BadConfigError) or at the shapes.
    with pytest.raises(BadConfigError if not isinstance(params, list) else SspqError):
        PARAMS_CASES[case](valid, params)


# Only these modules may name the class: the search handle with its boundary
# helper, the searches that take it, and the package exports. Everything else
# passes plain (n, d) arrays.
SEARCH_LAYER = {"embeddings", "evaluation", "__init__"}


def test_only_the_search_layer_names_embedding_matrix():
    files, offenders = 0, []
    for path in sorted(SRC.glob("*.py")):
        files += 1
        if path.stem in SEARCH_LAYER:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = (getattr(node, field, None) for field in ("id", "attr", "name"))
            if "EmbeddingMatrix" in names:
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert files > len(SEARCH_LAYER)
    assert offenders == []


def test_the_package_exports_no_test_only_names():
    # Each name the package exports is used by the library or named by the benchmark.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    used = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            used.update(getattr(node, "id", None) or getattr(node, "attr", None)
                        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    benchmark = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unused = [name for name in exported if name not in used and not re.search(rf"\b{name}\b", benchmark)]
    assert len(exported) > 20
    assert unused == []


@pytest.mark.parametrize("entry", [None, np.array([1 + 2j, 0, 0])], ids=["None", "complex"])
def test_query_encoder_rejects_a_parameter_that_is_not_a_real_array(entry):
    # None once failed later, at the shapes, and a complex bias lost its
    # imaginary part with only a ComplexWarning.
    with pytest.raises(BadConfigError):
        sspq.QueryEncoder([2, 3], [np.ones((3, 2)), entry])
