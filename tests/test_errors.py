"""The library raises only the exception types defined in ``sspq.errors``."""

import ast
import inspect
from pathlib import Path

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
