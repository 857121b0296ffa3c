"""The size of deepkm's source: code lines and optional settable values.

    python3 tools/surface.py [PACKAGE_DIR]    # PACKAGE_DIR defaults to src/deepkm

*Code lines* are the lines of the package's ``.py`` files that hold a
token other than a comment, leaving out the lines of docstrings (a
string that is the first statement of a module, class or function,
found with ``ast``).

*Optional settable values* are the parameters with a default of public
module-level functions (names without a leading underscore), plus the
fields with a default of dataclasses that ``__init__`` takes.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding code: not blank, not only a comment, not a docstring."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_is_optional(value: ast.expr) -> bool:
    """Whether a dataclass field with this value is an ``__init__``
    parameter with a default: not ``field(init=False)``, and not a
    ``field()`` with neither ``default`` nor ``default_factory``."""
    if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"):
        return True
    keywords = {k.arg: k.value for k in value.keywords}
    init = keywords.get("init")
    if isinstance(init, ast.Constant) and init.value is False:
        return False
    return "default" in keywords or "default_factory" in keywords


def _parameters_with_defaults(args: ast.arguments) -> list[str]:
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def optional_value_names(source: str) -> list[str]:
    """Parameters with a default of public module-level functions, as
    ``function.parameter``, plus dataclass fields with a default, as
    ``Class.field``, in source order."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            names += [f"{node.name}.{arg}" for arg in _parameters_with_defaults(node.args)]
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            names += [f"{node.name}.{item.target.id}" for item in node.body
                      if isinstance(item, ast.AnnAssign) and item.value is not None
                      and _field_is_optional(item.value)]
    return names


def optional_values(source: str) -> int:
    """How many optional settable values ``optional_value_names`` finds."""
    return len(optional_value_names(source))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "deepkm")
    lines = values = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        file_lines, file_values = code_lines(source), optional_values(source)
        lines += file_lines
        values += file_values
        print(f"{path.name:16} {file_lines:6} lines {file_values:4} values")
    print(f"{'total':16} {lines:6} lines {values:4} values")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
