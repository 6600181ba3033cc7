"""The package's one number rule, ``errors.checked``: a bool is no number,
a float no integer, a number must be finite and at least its minimum, and
no other module spells the rule out again."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gpagg.errors import checked

SRC = Path(__file__).resolve().parents[1] / "src" / "gpagg"


@pytest.mark.parametrize(
    "value, kind, minimum, expected",
    [
        (3, int, None, 3),
        (np.int64(3), int, 1, 3),
        (1, float, None, 1.0),
        (np.float32(0.5), float, 0, 0.5),
        (0.0, float, 0, 0.0),
        ("auto", str, None, "auto"),
    ],
)
def test_accepted_value_comes_back_as_its_kind(value, kind, minimum, expected):
    out = checked("x", value, kind, minimum)
    assert out == expected and type(out) is kind


@pytest.mark.parametrize(
    "value, kind, minimum, message",
    [
        (True, int, None, "x must be of type int, got True"),
        (np.bool_(False), float, None, "x must be of type float, got np.False_"),
        (2.5, int, None, "x must be of type int, got 2.5"),
        ("1", float, None, "x must be of type float, got '1'"),
        (1, str, None, "x must be of type str, got 1"),
        (math.nan, float, None, "x must be finite, got nan"),
        (-math.inf, float, 0, "x must be finite and >= 0, got -inf"),
        (-0.5, float, 0, "x must be finite and >= 0, got -0.5"),
        (np.int64(0), int, 1, "x must be >= 1, got 0"),
    ],
)
def test_rejected_value_is_named(value, kind, minimum, message):
    with pytest.raises(ValueError) as info:
        checked("x", value, kind, minimum)
    assert str(info.value) == message


def _number_rule_uses(tree: ast.AST) -> list[int]:
    """Lines that import ``numbers`` (in any form) or test ``isinstance``
    against ``bool``."""

    def is_numbers(module):
        return module == "numbers" or module.startswith("numbers.")

    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(is_numbers(a.name) for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and is_numbers(node.module):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and node.args:
            func = node.func
            name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
            first = node.args[0]
            if name in ("__import__", "import_module") and isinstance(first, ast.Constant) and first.value == "numbers":
                lines.append(node.lineno)
            elif name == "isinstance" and len(node.args) == 2:
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
                if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                    lines.append(node.lineno)
    return lines


def test_only_the_errors_module_holds_the_number_rule():
    """Every count, variance, range end and penalty is checked by ``checked``."""
    offenders = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        uses = _number_rule_uses(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            offenders[path.name] = uses
    assert not offenders


def test_number_rule_flags_each_form():
    for snippet in (
        "import numbers",
        "import numbers as nb",
        "import os, numbers",
        "from numbers import Real",
        "__import__('numbers')",
        "importlib.import_module('numbers')",
        "isinstance(x, bool)",
        "isinstance(x, (int, bool))",
        "ok = not isinstance(lam, bool) and lam >= 0",
    ):
        assert _number_rule_uses(ast.parse(snippet)), snippet
    for snippet in (
        "from .errors import checked",
        "import numpy",
        "from numbers_table import rows",
        "isinstance(x, int)",
        "isinstance(x, (int, float))",
        "flag = bool(x)",
    ):
        assert not _number_rule_uses(ast.parse(snippet)), snippet
