"""Cold-start import hygiene of the serving stack.

The serving layer's cold start must not pay for optional accelerators:
SciPy is a *lazily resolved* accelerator (see ``repro.network.csr``), so
importing the search core, the serving layer, or the whole package must
not pull it in.  Each check runs in a fresh subprocess — this process's
``sys.modules`` is already polluted by other tests.
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


_NO_HTTP_DEPS_PROBE = """\
import sys

class _Blocker:
    blocked = {"pydantic", "fastapi", "uvicorn", "starlette", "httpx"}
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in self.blocked:
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)")
        return None

sys.meta_path.insert(0, _Blocker())
import repro.core.search   # noqa: F401
import repro.service       # noqa: F401
import repro.gateway       # noqa: F401 - the bridge works without HTTP deps
import repro.gateway.aservice  # noqa: F401
import repro.gateway.server    # noqa: F401 - stdlib HTTP server
import repro.gateway.testing   # noqa: F401
from repro.gateway import http_available
assert not http_available(), "blocker failed: pydantic imported anyway"
leaked = sorted(
    name for name in sys.modules
    if name.split(".")[0] in _Blocker.blocked
)
assert not leaked, f"serving imports pulled in HTTP deps: {leaked}"
"""


def test_core_and_gateway_import_without_http_deps():
    """The HTTP layer's deps are optional: with pydantic/fastapi/uvicorn
    blocked outright, the core, the service layer, the async bridge, and
    the stdlib server must all still import (only ``repro.gateway.app``
    and ``schemas`` may require pydantic)."""
    proc = subprocess.run(
        [sys.executable, "-c", _NO_HTTP_DEPS_PROBE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_scipy_tier_still_reachable_after_lazy_resolution():
    """Laziness must not cost the accelerator: first kernel use resolves it."""
    pytest.importorskip("scipy")
    from repro.network.csr import scipy_available

    assert scipy_available()
