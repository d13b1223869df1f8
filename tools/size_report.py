"""Print the size of the package: its line count, per module and in total,
and its settable values.

A settable value is anything a caller can set without editing the code,
counted over the syntax tree of every module under ``src/``:

* a parameter with a default value, positional or keyword-only;
* a ``**kwargs`` parameter;
* a field of a class decorated with ``@dataclass``;
* an ``add_argument`` call (one command-line option or positional).

It also lists the top-level functions and classes that no code under ``src/``
names (as a name, an attribute or an import), which only tests, tools or
benchmarks can reach.

Run from the repository root:  python3 tools/size_report.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import os
import pathlib
import sys


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(tree: ast.AST) -> dict[str, int]:
    """Counts of each kind of settable value in one module's syntax tree."""
    counts = {"fields": 0, "defaults": 0, "options": 0}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            counts["fields"] += sum(isinstance(item, ast.AnnAssign) for item in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            counts["defaults"] += len(args.defaults)
            counts["defaults"] += sum(d is not None for d in args.kw_defaults)
            counts["defaults"] += args.kwarg is not None
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            counts["options"] += 1
    return counts


def _names(tree: ast.AST) -> set[str]:
    """Every identifier that one module's code refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    lines = {}
    totals = {"fields": 0, "defaults": 0, "options": 0}
    defined, named = [], set()
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines[path.relative_to(root)] = len(text.splitlines())
        tree = ast.parse(text, filename=str(path))
        for kind, count in settable_values(tree).items():
            totals[kind] += count
        defined += [(path.relative_to(root), node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        named |= _names(tree)
    unnamed = [f"{path}:{name}" for path, name in defined if name not in named]
    try:
        print(f"src lines: {sum(lines.values())}")
        print(f"settable values: {sum(totals.values())} "
              f"({totals['fields']} dataclass fields, {totals['defaults']} defaults and "
              f"**kwargs, {totals['options']} command-line options)")
        print(f"defined but named nowhere in {root}: {', '.join(unnamed) or 'none'}")
        print("lines per module:")
        for path, count in lines.items():
            print(f"{count:6d} {path}")
        sys.stdout.flush()  # a closed pipe raises here, inside the try
    except BrokenPipeError:
        # the SIGPIPE note in Python's signal docs: point stdout at devnull so
        # the flush at exit raises nothing more, and exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
