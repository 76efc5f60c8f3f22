"""Cold-start import hygiene of the serving stack.

The serving layer's cold start must not pay for what it does not use yet:
SciPy is imported *lazily*, on the first kernel call (see
``repro.network.csr``), so importing the search core, the serving layer,
or the whole package must not pull it in; pydantic stays confined to the
gateway's wire schemas.  Each check runs in a fresh subprocess — this
process's ``sys.modules`` is already polluted by other tests.
"""

import subprocess
import sys

import pytest

_PROBE = """\
import sys
assert "scipy" not in sys.modules, "scipy leaked before the import under test"
import {module}  # noqa: F401
leaked = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not leaked, f"importing {module} pulled in scipy: {{leaked}}"
"""


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.search",
        "repro.core.scan",
        "repro.core.plan",
        "repro.core.registry",
        "repro.trajectory.io",
        "repro.index.database",
        "repro.service",
        "repro",
    ],
)
def test_import_stays_scipy_free(module):
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


_PYDANTIC_PROBE = """\
import sys
assert "pydantic" not in sys.modules, "pydantic leaked before the imports under test"
import repro.core.search  # noqa: F401
import repro.service  # noqa: F401
import repro.gateway  # noqa: F401
import repro.gateway.server  # noqa: F401
import repro.gateway.testing  # noqa: F401
leaked = sorted(name for name in sys.modules if name.split(".")[0] == "pydantic")
assert not leaked, f"the serving imports pulled in pydantic: {leaked}"
"""


def test_core_and_gateway_import_without_http_deps():
    """Only ``repro.gateway.app`` and ``schemas`` import pydantic: the core,
    the service layer, the async bridge, the stdlib server and the in-memory
    client leave it unloaded."""
    proc = subprocess.run(
        [sys.executable, "-c", _PYDANTIC_PROBE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_tier_still_reachable_after_lazy_resolution():
    """Laziness must not cost the SciPy kernels: the first call resolves them."""
    from scipy.sparse.csgraph import dijkstra

    from repro.network.csr import _scipy_kernels

    assert _scipy_kernels()[1] is dijkstra
