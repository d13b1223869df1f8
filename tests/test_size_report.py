import os
import pathlib
import runpy
import subprocess
import sys

TOOL = pathlib.Path(__file__).parents[1] / "tools" / "size_report.py"
SIZE_REPORT = runpy.run_path(str(TOOL))


def test_lists_the_definitions_no_module_names(tmp_path, capsys):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "a.py").write_text(
        "import math\n"
        "from .b import used_by_import\n\n"
        "def caller(x=1):\n    return helper(x) + math.pi\n\n"
        "def helper(x):\n    return x\n\n"
        "class Orphan:\n    pass\n",
        encoding="utf-8")
    (package / "b.py").write_text(
        "from . import a\n\n"
        "def used_by_import():\n    return a.caller()\n\n"
        "def orphan():\n    return 0\n",
        encoding="utf-8")
    assert SIZE_REPORT["main"](["size_report.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src lines: 18"
    assert lines[1].startswith("settable values: 1 ")
    assert lines[2] == f"defined but named nowhere in {tmp_path}: pkg/a.py:Orphan, pkg/b.py:orphan"


def test_src_defines_nothing_it_never_names_but_the_benchmark_hook(capsys):
    # perfbench wraps kernel.decay_integrand, which nothing in src/ calls;
    # every other top-level definition must be used, so a deletion that
    # leaves its helper behind fails here
    src = pathlib.Path(__file__).parents[1] / "src"
    assert SIZE_REPORT["main"](["size_report.py", str(src)]) == 0
    unnamed = capsys.readouterr().out.splitlines()[2]
    assert unnamed == f"defined but named nowhere in {src}: ladder_dd/kernel.py:decay_integrand"


def test_module_line_counts_sum_to_the_total(capsys):
    src = pathlib.Path(__file__).parents[1] / "src"
    assert SIZE_REPORT["main"](["size_report.py", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = int(lines[0].removeprefix("src lines: "))
    assert lines[3] == "lines per module:"
    counts = {path: int(count) for count, path in (line.split() for line in lines[4:])}
    assert counts == {str(path.relative_to(src)): len(path.read_text(encoding="utf-8").splitlines())
                      for path in src.rglob("*.py")}
    assert sum(counts.values()) == total


def test_closed_pipe_exits_1_without_a_traceback():
    # a reader that has gone (say `| head -1`): the tool's output meets a
    # pipe whose read end is closed, and it exits 1 with nothing on stderr
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, str(TOOL), str(TOOL.parents[1] / "src")],
                              stdout=write, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")
