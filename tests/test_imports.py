"""Each module of the package imports on its own, and the package exports no names."""

import json
import os
import subprocess
import sys

import creflow

# Clears every creflow module before each import, so that no module imports
# only because an earlier one loaded what it needs.
SCRIPT = """
import importlib, json, pkgutil, sys
import creflow
loaded = {}
for name in sorted(m.name for m in pkgutil.iter_modules(creflow.__path__)):
    for key in [k for k in sys.modules if k.startswith("creflow")]:
        del sys.modules[key]
    importlib.import_module("creflow." + name)
    loaded[name] = sorted(k for k in sys.modules if k.startswith("creflow"))
print(json.dumps(loaded))
"""


def test_each_module_imports_alone():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(creflow.__file__))}
    run = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    loaded = json.loads(run.stdout)
    package_dir = os.path.dirname(creflow.__file__)
    assert sorted(loaded) == sorted(
        name[:-3] for name in os.listdir(package_dir)
        if name.endswith(".py") and name != "__init__.py")
    for name, modules in loaded.items():
        assert f"creflow.{name}" in modules
    assert loaded["ltlf"] == ["creflow", "creflow.errors", "creflow.ltlf"]
