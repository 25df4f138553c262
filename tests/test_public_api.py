"""Public-API integrity: exports resolve, are documented, and the
package's layering holds."""

import importlib
import inspect
import re

import pytest

import repro


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), "repro.%s missing" % (name,)


def test_all_public_classes_and_functions_documented():
    undocumented = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, "undocumented exports: %s" % (undocumented,)


@pytest.mark.parametrize("module_name", [
    "repro.netsim", "repro.unixsim", "repro.core", "repro.tracing",
    "repro.localos", "repro.baselines", "repro.bench", "repro",
    "repro.realnet", "repro.ops", "repro.perf",
])
def test_subpackage_exports_resolve(module_name):
    """Every export resolves (loaded lazily, on first read), and
    ``dir`` and ``import *`` list exactly ``__all__``."""
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), "%s.%s missing" % (module_name,
                                                         name)
    assert set(module.__all__) <= set(dir(module))
    star = {}
    exec("from %s import *" % module_name, star)
    assert set(star) - {"__builtins__"} == set(module.__all__)
    with pytest.raises(AttributeError,
                       match=re.escape(repr(module_name))):
        module.no_such_name


def test_every_module_has_a_docstring():
    import os
    root = os.path.dirname(repro.__file__)
    missing = []
    for dirpath, _dirs, files in os.walk(root):
        for filename in files:
            if not filename.endswith(".py"):
                continue
            relative = os.path.relpath(os.path.join(dirpath, filename),
                                       root)
            module_name = "repro." + relative[:-3].replace(os.sep, ".")
            module_name = module_name.replace(".__init__", "")
            module = importlib.import_module(module_name)
            if not (module.__doc__ or "").strip():
                missing.append(module_name)
    assert not missing, "modules without docstrings: %s" % (missing,)


def test_layering_netsim_does_not_import_upper_layers():
    # The substrate must not depend on the PPM built on top of it.
    import os
    import re
    root = os.path.dirname(repro.__file__)
    violations = []
    forbidden = {
        "netsim": ("unixsim", "core", "tracing", "localos", "baselines"),
        "unixsim": ("core", "localos", "baselines"),
        "tracing": ("core", "unixsim", "netsim", "localos"),
    }
    # The host-OS contract (its types and the control table) is the
    # one part of the protocol stack the simulated kernel implements.
    contract = r"from \.\.core\.(hostos|control) import"
    for package, banned in forbidden.items():
        package_dir = os.path.join(root, package)
        for filename in os.listdir(package_dir):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(package_dir, filename)) as handle:
                text = handle.read()
            if package == "unixsim":
                text = re.sub(contract, "", text)
            for upper in banned:
                if re.search(r"from \.\.%s|import repro\.%s"
                             % (upper, upper), text):
                    violations.append("%s/%s imports %s"
                                      % (package, filename, upper))
    assert not violations, violations


def test_version_is_exposed():
    assert repro.__version__
