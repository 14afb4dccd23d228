"""API drift: the names the README and the benchmark's tracer rely on."""

import importlib
import inspect
import re
import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    ratio, _, bound = capsys.readouterr().out.split()
    assert float(ratio) >= float(bound) == 1 / 32


def test_every_traced_boundary_resolves():
    # run_path compiles the file without writing a bytecode cache beside it
    tracing = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))
    for name, owner, attr, _, arg, _ in tracing["BOUNDARIES"]:
        mod_name, _, cls_name = owner.partition(":")
        holder = importlib.import_module(f"matprophet.{mod_name}")
        if cls_name:
            holder = getattr(holder, cls_name)
        fn = getattr(holder, attr)
        assert callable(fn), name
        if arg is not None:
            # the tracer reads this argument to count the boundary's work
            assert arg in inspect.signature(fn).parameters, name
