"""The library raises only the exception types defined in ``sspq.errors``."""

import ast
import inspect
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sspq import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "sspq"

ERROR_TYPES = {
    name
    for name, obj in vars(errors).items()
    if inspect.isclass(obj)
    and obj.__module__ == errors.__name__
    and issubclass(obj, errors.SspqError)
}


def test_every_raise_names_an_sspq_error():
    raises, offenders = 0, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue  # a bare raise re-raises what it caught
            raises += 1
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (isinstance(exc, ast.Name) and exc.id in ERROR_TYPES):
                offenders.append(f"{path.name}:{node.lineno}: raise {ast.unparse(node.exc)}")
    assert raises > 0
    assert offenders == []


def test_only_errors_spells_out_the_bool_exclusion():
    # "An int that is not a bool" is written once, in check_int and check_real.
    spelled = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
            ):
                spelled.append((path.name, f"{path.name}:{node.lineno}: {ast.unparse(node)}"))
    assert {name for name, _ in spelled} == {"errors.py"}, [where for _, where in spelled]


@pytest.mark.parametrize(
    ("value", "low"), [(0, 0), (7, 0), (np.int64(3), 0), (np.uint8(1), 0), (1, 1), (np.int32(5), 4)],
)
def test_check_int_accepts_integers_at_least_low(value, low):
    errors.check_int("n", value, low)


@pytest.mark.parametrize(
    ("value", "low"),
    [(-1, 0), (np.int64(-2), 0), (1.5, 0), (2.0, 0), (True, 0), (np.True_, 0), ("1", 0), (None, 0),
     (0, 1), (np.int64(3), 4)],
    ids=["neg", "np-neg", "float", "integral-float", "bool", "np-bool", "str", "none",
         "below-low", "np-below-low"],
)
def test_check_int_rejects_everything_else(value, low):
    with pytest.raises(errors.BadConfigError):
        errors.check_int("n", value, low)


@pytest.mark.parametrize(
    ("value", "positive"),
    [(0, False), (0.0, False), (2, False), (0.5, True), (1e-300, True), (np.float32(2.5), True), (np.int64(3), True),
     (Fraction(1, 10), True), pytest.param(10**300, True, id="int-1e300")],
)
def test_check_real_accepts_finite_reals_in_range(value, positive):
    number = errors.check_real("x", value, positive)
    assert type(number) is float and number == float(value)


@pytest.mark.parametrize(
    ("value", "positive"),
    [(np.nan, False), (np.inf, False), (-np.inf, False), (np.float64(np.nan), True), (True, False),
     (np.True_, False), ("1", False), (None, False), (0, True), (0.0, True), (-0.5, False), (-1, True),
     (10**400, False), (-(10**400), False), (Fraction(10**400, 3), False), (Fraction(1, 10**400), True)],
    ids=["nan", "inf", "-inf", "np-nan", "bool", "np-bool", "str", "none", "zero-positive",
         "zero-float-positive", "negative", "negative-positive", "int-beyond-float", "-int-beyond-float",
         "fraction-beyond-float", "fraction-that-rounds-to-zero-positive"],
)
def test_check_real_rejects_everything_else(value, positive):
    with pytest.raises(errors.BadConfigError):
        errors.check_real("x", value, positive)


@pytest.mark.parametrize(
    ("check", "value", "shown"),
    [(lambda v: errors.check_int("seed", v, 0), -(10**5000), "a negative int of 16610 bits"),
     (lambda v: errors.check_real("tau_g", v, True), 10**5000, "an int of 16610 bits"),
     (lambda v: errors.check_real("tau_g", v, True), Fraction(10**5000, 3), "a Fraction too long to print")],
    ids=["check_int", "check_real", "check_real-fraction"],
)
def test_an_int_too_long_to_print_is_named_by_its_bit_length(check, value, shown):
    # Python refuses to turn an int of over 4,300 digits into a string.
    with pytest.raises(errors.BadConfigError, match=f"got {shown}$"):
        check(value)


@pytest.mark.parametrize(
    "values",
    [np.full((3, 4), 1e308), np.array([[1.7e308, 1.7e308], [-1.7e308, 0.0]]), np.asfortranarray(np.full((2, 3), -1e308)),
     np.zeros((2, 0)), np.array([0.0, -0.0, 5e-324])],
    ids=["sum-overflows", "mixed-signs-overflow", "fortran-overflow", "empty", "zeros-and-subnormal"],
)
def test_check_finite_passes_finite_arrays_without_a_warning(values):
    # The suite turns warnings into errors, so an overflow warning from the sum fails here.
    errors.check_finite(values, "bad values")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fill", [0.0, 1e308], ids=["small", "sum-overflows"])
def test_check_finite_raises_on_a_nan_or_an_infinity(bad, fill):
    values = np.full((3, 4), fill)
    values[2, 1] = bad
    with pytest.raises(errors.NonFiniteInputError, match="^bad values$"):
        errors.check_finite(values, "bad values")


def test_check_finite_raises_when_infinities_of_both_signs_sum_to_nan():
    with pytest.raises(errors.NonFiniteInputError):
        errors.check_finite(np.array([np.inf, 1.0, -np.inf]), "bad values")
