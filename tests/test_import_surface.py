"""What a process imports: a ``repro serve`` host loads the realnet
stack, not the simulator, and every package exports lazily."""

import importlib.util
import json
import os
import subprocess
import sys

import repro


def loaded_after(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    probe = (code + "\nimport json, sys\nprint(json.dumps(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'repro')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_serve_imports_no_simulator():
    # ``serve_host`` imports the stack when it runs, so the probe
    # imports what it runs as well.
    stack = ["repro.realnet.fabric", "repro.realnet.node",
             "repro.realnet.pmd", "repro.realnet.registry",
             "repro.realnet.serve"]
    loaded = loaded_after("import repro.cli, " + ", ".join(stack))
    assert set(stack) <= set(loaded)
    banned = [name for name in loaded
              if name.split(".")[1:2] in (["netsim"], ["tracing"], ["ops"])
              or name in ("repro.core.lpm", "repro.core.ppm",
                          "repro.core.client", "repro.core.transport")]
    assert banned == []
    assert [name for name in loaded if name.startswith("repro.unixsim")] \
        == []


def test_importing_repro_loads_no_subpackage():
    assert loaded_after("import repro") == ["repro", "repro.util"]


def test_a_read_caches_the_value_in_the_package():
    assert repro.World is repro.unixsim.world.World
    assert "World" in vars(repro)


def load_lint():
    spec = importlib.util.spec_from_file_location(
        "check_layering",
        os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools",
                     "check_layering.py"))
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    return lint


def test_layering_lint_reads_only_import_time_imports(tmp_path):
    lint = load_lint()
    source = tmp_path / "node.py"
    source.write_text(
        "from typing import TYPE_CHECKING\n"
        "from ..unixsim.signals import Signal\n"
        "if TYPE_CHECKING:\n"
        "    from ..unixsim.kernel import Kernel\n"
        "try:\n"
        "    from ..tracing import events\n"
        "except ImportError:\n"
        "    pass\n"
        "def later():\n"
        "    from ..ops import doctor\n")
    imports = lint.module_imports(str(source), "repro.realnet",
                                  top_level=True)
    assert sorted(name for name in imports
                  if lint._matches(name, lint.SERVE_BANNED)) \
        == ["repro.tracing", "repro.tracing.events",
            "repro.unixsim.signals", "repro.unixsim.signals.Signal"]


def test_layering_lint_reports_a_core_module_importing_the_simulator(
        tmp_path):
    """Rule 7 reads every import of a ``repro.core`` module, a
    ``TYPE_CHECKING`` one and one inside a function included."""
    lint = load_lint()
    source = tmp_path / "control.py"
    source.write_text(
        "from typing import TYPE_CHECKING\n"
        "from .hostos import ProcState\n"
        "if TYPE_CHECKING:\n"
        "    from ..unixsim.kernel import Kernel\n"
        "def later():\n"
        "    import repro.netsim.stream\n")
    errors = lint.core_violations(str(source))
    assert all(error.startswith("core/control.py imports ")
               for error in errors)
    assert [error.split("'")[1] for error in errors] == [
        "repro.netsim.stream", "repro.unixsim.kernel",
        "repro.unixsim.kernel.Kernel"]


def test_layering_lint_reports_a_layer_importing_the_coordinator(tmp_path):
    """Rule 3 covers the recovery manager and the handler pool, and
    reads an import made inside a function."""
    lint = load_lint()
    assert {"recovery", "dispatcher"} <= set(lint.LAYER_MODULES)
    source = tmp_path / "recovery.py"
    source.write_text(
        "from .messages import Message\n"
        "def _time_to_die(self):\n"
        "    from .lpm import INFRA_COMMANDS\n")
    assert [error.split("'")[1] for error in
            lint.layer_violations(str(source), "recovery")] == [
        "repro.core.lpm", "repro.core.lpm.INFRA_COMMANDS"]
    real = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                        "repro", "core", "recovery.py")
    assert lint.layer_violations(real, "recovery") == []


def test_layering_lint_reports_an_lpm_reaching_past_its_seams():
    """Rule 12: no ``.world``/``.sim`` read outside ``install``, and on
    a host only what :class:`~repro.core.hostos.HostServices`
    declares."""
    lint = load_lint()
    members = lint.contract_members()
    assert members == {"name", "host_class", "kernel", "up", "uid_of",
                       "read_recovery_file", "listen", "unlisten",
                       "forget_lpm"}
    source = (
        "def handle(lpm):\n"
        "    window = lpm.world.config.broadcast_dedup_window_ms\n"
        "    lpm.host.node.listen('svc', None)\n"
        "    lpm.host.kernel.spawn(1, 'x')\n"
        "    return lpm.fabric.now_ms + lpm.host.up\n"
        "def install(world):\n"
        "    world.sim.rng.getrandbits(64)\n")
    assert lint.seam_violations(source, "lpm", members) == [
        "lpm.py:2 reads .world: the LPM reaches its machine through the "
        "fabric and its host",
        "lpm.py:3 reads host.node, which HostServices does not declare"]
