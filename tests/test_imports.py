"""What importing pardom loads, and how its lazily loaded names behave."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pardom
import pardom.cli

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules a CLI start must not pay for unless a subcommand uses them.
HEAVY = ("pardom.audit", "pardom.formulas", "dataclasses", "inspect", "json", "statistics")


def loaded_after(code: str) -> list[str]:
    """The HEAVY modules in ``sys.modules`` after ``code`` runs in a fresh
    ``python -S`` (no site hooks), with ``src`` on the path."""
    probe = f"{code}\nimport sys\nprint(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()[-1].split()


def test_import_loads_no_heavy_module():
    assert loaded_after("import pardom, pardom.cli") == []


def test_solver_subcommands_load_no_heavy_module():
    code = (
        "from pardom.cli import main\n"
        "main(['gen', '--family', 'cycle:5'])\n"
        "main(['solve', '--family', 'grid:3,3', '--p', '1/2'])\n"
        "main(['big-gamma', '--family', 'path:6'])\n"
        "main(['bench', '--family', 'cycle:6', '--repeat', '2'])"
    )
    assert loaded_after(code) == []


def test_json_output_loads_json_only():
    code = "from pardom.cli import main\nmain(['solve', '--family', 'cycle:5', '--json'])"
    assert loaded_after(code) == ["json"]


@pytest.mark.parametrize("name, module", sorted(pardom._LAZY.items()))
def test_lazy_names_are_the_module_objects(name, module):
    assert getattr(pardom, name) is getattr(sys.modules[f"pardom.{module}"], name)


@pytest.mark.parametrize("name", pardom.cli._LAZY)
def test_cli_lazy_names_are_the_package_objects(name):
    assert getattr(pardom.cli, name) is getattr(pardom, name)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError):
        pardom.no_such_name
    with pytest.raises(AttributeError):
        pardom.cli.no_such_name


def test_star_import_exports_every_public_name():
    namespace = {}
    exec("from pardom import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    public = {
        name
        for name in dir(pardom)
        if not name.startswith("_") and not inspect.ismodule(getattr(pardom, name))
    }
    assert exported == public | set(pardom._LAZY)
    assert {"audit_suite", "gamma_half_formula", "SamplingError", "FormulaConflict", "Graph"} <= exported


@pytest.mark.parametrize(
    "name, argv",
    [
        ("audit_suite", ["audit", "--family", "path:6", "--ps", "1/2"]),
        ("sample_connected_coconnected", ["audit", "--sample", "6", "--ps", "1/2"]),
        ("gamma_half_formula", ["closed-form", "--family", "cycle:12"]),
        ("gamma_grid_goncalves", ["closed-form", "--family", "grid:16,16", "--ratio"]),
        ("grid_ratio_report", ["closed-form", "--family", "grid:16,16", "--ratio"]),
    ],
)
def test_cli_calls_a_replaced_lazy_name(monkeypatch, capsys, name, argv):
    original = getattr(pardom.cli, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pardom.cli, name, wrapper)
    assert pardom.cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(calls) == 1
