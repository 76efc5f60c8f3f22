"""The async HTTP serving gateway (DESIGN.md §14).

Layered so the import cost matches what a caller actually uses:

- ``repro.gateway`` (this module) and :mod:`repro.gateway.aservice` —
  stdlib + ``repro.service`` only.  Importing the package never pulls
  pydantic or a web framework, keeping the core import-light contract
  intact (see ``tests/test_import_light.py``);
- :mod:`repro.gateway.schemas` / :mod:`repro.gateway.app` — import
  pydantic (the wire contract);
- :mod:`repro.gateway.server` — the stdlib HTTP/1.1 server.

Typical embedding (what ``repro serve`` does)::

    service = QueryService(                # forks its workers here, first
        database, "scan", metrics=get_registry(), result_cache=256,
        pool=serving_workers(8),
    )
    gateway = AsyncQueryService(service, max_workers=8)
    app = create_app(gateway)          # imports pydantic
    await serve(app, host, port)       # stdlib asyncio server
"""

from __future__ import annotations

from repro.gateway.aservice import AsyncQueryService

__all__ = ["AsyncQueryService"]
