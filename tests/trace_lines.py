"""Print each statement of the package that the tier-1 suite never executes.

Run from the repository root, with any pytest arguments after the script:

    PYTHONPATH=src python tests/trace_lines.py

The suite runs under `sys.settrace`, which records line events in the
package's own frames only. A statement counts as executed when any line of
it (of its header, for a compound statement) produced an event; statements
that compile to no code, such as docstrings, are skipped. Code run only in
a child process, such as `python -m riskaudit`, is reported as missed.
Pytest does not collect this file, and it is no part of tier-1.
"""
import ast
import os
import sys
import types
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "riskaudit"
hit: dict[str, set[int]] = {str(p): set() for p in PACKAGE.glob("*.py")}
_by_name: dict = {}  # a code object's file name -> its set in `hit`, or None


def _local(frame, event, arg):
    if event == "line":
        _by_name[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _by_name:
        _by_name[name] = hit.get(os.path.abspath(name))
    return _local if _by_name[name] is not None else None


def _code_lines(code: types.CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def missed(path: str) -> list[int]:
    """First lines of the statements of `path` that have code and no hit."""
    source = Path(path).read_text()
    code = _code_lines(compile(source, path, "exec"))
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        inner = [child.lineno for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt)]
        last = max(node.lineno, min(inner) - 1) if inner else node.end_lineno
        span = set(range(node.lineno, last + 1))
        if span & code and not span & hit[path]:
            out.append(node.lineno)
    return sorted(out)


if __name__ == "__main__":
    import pytest

    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
    finally:
        sys.settrace(None)
    for path in sorted(hit):
        lines = Path(path).read_text().splitlines()
        for n in missed(path):
            print(f"{Path(path).relative_to(PACKAGE.parent.parent)}:{n}: {lines[n - 1].strip()}")
    sys.exit(status)
