"""API drift: the names the README and the benchmark's tracer rely on,
and the packages the library may import."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_imports_stay_within_numpy_and_scipy():
    # the package imports, past the standard library, exactly the runtime
    # dependencies that pyproject.toml declares (numpy alone: scipy is a
    # test oracle); anything else installed here (scipy, networkx, numba)
    # must not leak into it, and the console script is the CLI's main
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep)[0]
                for dep in project["dependencies"]}
    imported = set()
    for path in sorted((ROOT / "src" / "matprophet").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            imported |= {name.split(".")[0] for name in names}
    assert imported - set(sys.stdlib_module_names) - {"matprophet"} == \
        declared
    from matprophet.cli import main
    assert project["scripts"] == {"matprophet": "matprophet.cli:main"}
    module, _, attr = project["scripts"]["matprophet"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main


# runs in a fresh interpreter: the scipy modules loaded after importing
# the CLI and after each command in argv (a JSON list), as a JSON object
SCIPY_PROBE = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from matprophet.cli import main
loaded = {"import matprophet.cli": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    loaded[" ".join(argv)] = scipy_modules()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    # starting the CLI and every command cost numpy's import, not scipy's:
    # the graphic commands, and verify on the verify-suite benchmark's
    # mixed suite and every uniform and partition baseline, whose atom coin
    # comes from the Brent root written in baselines
    g = ["--instance", "suite/g.json"]
    run = ["run", *g, "--algo", "graphic-random-cut", "--trials", "2000"]
    graphic = ["--family", "graphic", "--allow-parallel", "--edges", "10"]
    bench_suite = [("g1", [*graphic, "--vertices", "8"]),
                   ("g2", [*graphic, "--vertices", "9"]),
                   ("u", ["--family", "uniform", "--n", "14", "--k", "4"]),
                   ("p", ["--family", "partition", "--blocks", "4,4,4",
                          "--capacities", "1,2,1"])]
    commands = [
        ["gen", "--family", "graphic", "--vertices", "5", "--edges", "7",
         "--allow-parallel", "--seed", "1", "--out", "suite/g.json"],
        *(["gen", *flags, "--support-size", "2", "--seed", str(1000 + i),
           "--out", f"suite/{name}.json"]
          for i, (name, flags) in enumerate(bench_suite)),
        [*run, "--mode", "exact", "--out", "out/exact"],
        [*run, "--mode", "mc", "--order", "worst-case", "--out", "out/worst"],
        [*run, "--mode", "mc", "--order", "random", "--out", "out/random"],
        ["run", *g, "--algo", "graphic-derandomized", "--out", "out/derand"],
        ["reduce", *g, "--out", "out/reduce.json"],
        ["orient", *g, "--out", "out/orient.json"],
        ["verify", "--suite", "suite"],
        *(["run", "--instance", f"suite/{name}.json", "--algo", algo,
           "--mode", "exact", "--out", f"out/{algo}"]
          for name, algo in (("u", "kuniform-prob"), ("u", "kuniform-optfrac"),
                             ("p", "partition"), ("p", "partition-optfrac"))),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE,
                           json.dumps(commands)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert len(loaded) == 1 + len(commands)
    assert loaded == {step: [] for step in loaded}


def test_every_module_import_is_used():
    # no linter is a dependency: a name a module or a test imports but
    # never reads is found here (the package's __init__ imports to
    # re-export)
    paths = sorted((ROOT / "src" / "matprophet").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py"))
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in read, f"{path.name}: {bound} unused"


def test_the_enumeration_budget_has_one_source():
    # MATPROPHET_ENUM_CAP, read by errors.check_enum_cap, is the only
    # budget: no function takes a cap of its own, and no other module
    # reads the variable
    for path in sorted((ROOT / "src" / "matprophet").glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args
                         + a.kwonlyargs + [a.vararg, a.kwarg] if arg]
                assert "cap" not in names, \
                    f"{path.name}:{node.lineno} takes a cap parameter"
        if path.name != "errors.py":
            assert "MATPROPHET_ENUM_CAP" not in text, path.name


def test_readme_cli_flags_exist():
    # every --flag the README's CLI section names is an option of some
    # subcommand
    from matprophet.cli import build_parser

    readme = (ROOT / "README.md").read_text()
    cli = readme[readme.index("## CLI"):readme.index("## Benchmarks")]
    named = set(re.findall(r"--[a-z][a-z-]*", cli))
    assert named
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {flag for p in sub.choices.values()
               for flag in p._option_string_actions}
    assert named <= options, sorted(named - options)
