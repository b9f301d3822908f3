"""The package namespace and the modules each command imports.

``ribbonlab`` resolves its public names lazily through a table of each
module's public names, from which each module reads its ``__all__``,
importing only the module that defines a name, and ``ribbonlab.cli``
imports only what the command it runs needs, with no ``dataclasses``;
both are checked here, the import boundaries in fresh interpreters.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbonlab
from ribbonlab import alexander, moves, quandle, ribbon, search

GOLDEN = Path(__file__).parent / "golden"
MODULES = (ribbon, moves, quandle, alexander, search)

# Run ``python -m ribbonlab.cli <args>`` and print, as the last stdout
# line, its exit code, the ribbonlab modules it left loaded and every
# module it loaded that the interpreter had not loaded before it.
PROBE = """
import json, runpy, sys
bare = set(sys.modules)
code = 0
try:
    runpy.run_module("ribbonlab.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "ribbonlab")
print(json.dumps([code, loaded, sorted(set(sys.modules) - bare)]))
"""

# command -> (arguments in the golden directory, submodules it may load)
BOUNDARY = {
    "validate": (["validate", "knot12.ribbon"], ["ribbon"]),
    "canon": (["canon", "knot12.ribbon"], ["ribbon"]),
    "genus": (["genus", "knot12.ribbon"], ["ribbon"]),
    "quandle": (["quandle", "knot12.ribbon", "--group"], ["quandle", "ribbon"]),
    "color": (["color", "knot12.ribbon", "--quandle", "s4-transpositions.quandle"], ["quandle", "ribbon"]),
    "alex": (["alex", "knot12.ribbon"], ["alexander", "ribbon"]),
    "apply": (["apply", "open3a.ribbon", "--script", "all-moves.script"], ["moves", "ribbon"]),
    "gen": (["gen", "stabilized:5:3"], ["moves", "ribbon"]),
    "search": (
        ["search", "spun-stabilized.ribbon", "spun-trefoil.ribbon", "--depth", "2", "--weak", "0", "--stats"],
        ["moves", "quandle", "ribbon", "search"],
    ),
}


def python(*args) -> str:
    """Stdout of a fresh interpreter run in the golden directory."""
    env = dict(os.environ, PYTHONPATH=str(Path(ribbonlab.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=GOLDEN, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", sorted(BOUNDARY))
def test_each_command_imports_only_the_modules_it_runs(command):
    args, expected = BOUNDARY[command]
    code, loaded, added = json.loads(python("-c", PROBE, *args).splitlines()[-1])
    assert code == 0
    assert "ribbonlab" in loaded
    assert sorted(set(loaded) - {"ribbonlab", "ribbonlab.cli"}) == [f"ribbonlab.{m}" for m in expected]
    # the value classes are built without ``dataclasses``, whose import
    # also loads ``inspect``, ``ast``, ``dis`` and ``tokenize``
    assert not {"dataclasses", "inspect"} & set(added)


def test_importing_the_package_loads_no_submodule():
    out = python("-c", "import sys, ribbonlab; print([m for m in sys.modules if m.startswith('ribbonlab.')])")
    assert out == "[]\n"


def test_package_namespace_is_the_union_of_the_modules_public_names():
    names = [name for module in MODULES for name in module.__all__]
    assert len(set(names)) == len(names), "two modules list the same public name"
    assert ribbonlab.__all__ == names
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ribbonlab, name) is getattr(module, name)
    assert set(names) <= set(dir(ribbonlab))
    namespace = {}
    exec("from ribbonlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
    assert all(namespace[name] is getattr(ribbonlab, name) for name in names)
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ribbonlab.no_such_name


@pytest.mark.parametrize(
    "name, expected",
    [
        ("search_equiv", ["moves", "quandle", "ribbon", "search"]),
        ("Stab", ["moves", "ribbon"]),
        ("count_colorings", ["quandle", "ribbon"]),
        ("parse_ribbon", ["ribbon"]),
    ],
)
def test_a_public_name_imports_only_the_module_that_defines_it(name, expected):
    # ``search`` imports ``moves``, ``quandle`` and ``ribbon`` itself, but
    # not ``alexander``
    code = f"import sys; from ribbonlab import {name}; print(sorted(m for m in sys.modules if m.startswith('ribbonlab.')))"
    assert python("-c", code) == f"{[f'ribbonlab.{m}' for m in expected]}\n"
