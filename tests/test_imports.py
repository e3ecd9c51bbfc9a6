"""What each entry point loads: the package's lazy public names and the
modules each subcommand imports, numpy.random among them, checked in fresh
interpreters."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import wiretapsi
from wiretapsi.modelio import model_to_dict, policy_to_dict
from wiretapsi.reference import degraded_bsc_pair, uniform_input_policy

SRC = os.path.dirname(os.path.dirname(os.path.abspath(wiretapsi.__file__)))
# the package's modules and numpy.random, which no subcommand loads
PROBE = ("import sys\n"
         "def loaded():\n"
         "    return ' '.join(sorted(m for m in sys.modules\n"
         "                           if m.split('.')[0] == 'wiretapsi' or m == 'numpy.random'))\n"
         "import wiretapsi.cli\n"
         "print(loaded())\n"
         "code = wiretapsi.cli.main(sys.argv[1:])\n"
         "print(code, loaded())\n")
LAYERS = {"clamp", "discrete", "gaussian", "nodesums", "probability", "reference",
          "simulator", "validate"}


def loaded_modules(tmp_path, argv):
    """The package modules, and numpy.random if it is, loaded after `import
    wiretapsi.cli` and after the call, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PROBE, *argv, "--out", str(tmp_path / "o")],
                         env=dict(os.environ, PYTHONPATH=SRC), cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    after_import, after_call = out.stdout.splitlines()[-2:]
    code, *modules = after_call.split()
    assert code == "0"
    return ({m.removeprefix("wiretapsi.") for m in after_import.split()},
            {m.removeprefix("wiretapsi.") for m in modules})


def write_inputs(tmp_path):
    model = degraded_bsc_pair(0.05, 0.2)
    (tmp_path / "model.json").write_text(json.dumps(model_to_dict(model)))
    (tmp_path / "policy.json").write_text(json.dumps(policy_to_dict(uniform_input_policy(model))))
    (tmp_path / "sim.json").write_text(json.dumps({
        "model_file": "model.json", "policy_file": "policy.json",
        "n": 4, "rate": 0.3, "epsilon_typ": 0.25, "trials": 5, "seed": 7}))


GAUSSIAN_ABSENT = {"discrete", "probability", "simulator", "nodesums", "validate", "reference",
                   "ziggurat", "numpy.random"}


# subcommand argv, the layers the call must not load and those it must.
# Every seeded draw comes from probability's PCG64 kernel: the simulator's
# codebook and trials, and discrete-region's Dirichlet exponentials, whose
# ziggurat tables only discrete-region loads.  No subcommand loads
# numpy.random.
@pytest.mark.parametrize("argv,absent,present", [
    pytest.param(["gaussian-scan", "--step", "0.5"], GAUSSIAN_ABSENT, {"gaussian"},
                 id="gaussian-scan"),
    pytest.param(["gaussian-region", "--grid", "8"], GAUSSIAN_ABSENT, {"gaussian"},
                 id="gaussian-region-1"),
    pytest.param(["gaussian-region", "--case", "2", "--grid", "8"], GAUSSIAN_ABSENT,
                 {"gaussian"}, id="gaussian-region-2"),
    pytest.param(["discrete-region", "--model", "model.json", "--random", "20"],
                 {"gaussian", "simulator", "nodesums", "validate", "reference", "numpy.random"},
                 {"discrete", "probability", "ziggurat"}, id="discrete-region"),
    pytest.param(["simulate", "--sim-config", "sim.json"],
                 {"gaussian", "validate", "reference", "ziggurat", "numpy.random"},
                 {"simulator", "probability", "nodesums"}, id="simulate"),
])
def test_each_subcommand_loads_only_its_layers(tmp_path, argv, absent, present):
    write_inputs(tmp_path)
    after_import, after_call = loaded_modules(tmp_path, argv)
    assert after_import == {"wiretapsi", "cli", "errors", "modelio"}
    assert not after_call & absent
    assert after_call >= present


def test_a_codebook_dump_leaves_numpy_random_unloaded(tmp_path):
    write_inputs(tmp_path)
    _, after_call = loaded_modules(tmp_path, ["simulate", "--sim-config", "sim.json",
                                              "--dump-codebook"])
    assert "numpy.random" not in after_call
    assert (tmp_path / "o" / "codebook.txt").exists()


def test_validate_loads_every_layer(tmp_path):
    # and draws its seeded checks from the PCG64 kernel, not numpy.random;
    # it samples no policies, so the ziggurat tables stay unloaded
    _, after_call = loaded_modules(tmp_path, ["validate"])
    assert after_call >= LAYERS
    assert not after_call & {"ziggurat", "numpy.random"}


def test_every_public_name_is_its_home_modules_object():
    for name in wiretapsi.__all__:
        value = getattr(wiretapsi, name)
        home = value.__module__
        assert home.startswith("wiretapsi.") and home != "wiretapsi.cli", name
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_every_public_name():
    assert set(wiretapsi.__all__) <= set(dir(wiretapsi))
    assert {"__version__", "ToolkitError"} <= set(dir(wiretapsi))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        wiretapsi.no_such_name
    with pytest.raises(ImportError):
        from wiretapsi import no_such_name  # noqa: F401
    import wiretapsi.cli as cli
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name
