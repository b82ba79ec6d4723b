"""Network serving: multi-graph routing + a stdlib-only HTTP front.

The server package is the network boundary over the service layer —
what turns the paper's indexes into something remote clients can hit:

* :mod:`repro.server.router` — :class:`DiversityRouter`, many named
  graphs in one process (per-graph
  :class:`~repro.service.DiversityService`, one shared
  :class:`~repro.service.IndexStore`, lock-free routed reads,
  per-graph single-writer updates);
* :mod:`repro.server.http` — :class:`DiversityHTTPServer`, a
  :class:`~http.server.ThreadingHTTPServer` JSON API
  (``GET /graphs/<name>/top_r``, ``POST /graphs/<name>/updates``,
  ``POST /compact``, ``/healthz``, ``/stats``, …) exposed on the CLI
  as ``repro serve --http PORT``;
* :mod:`repro.server.client` — :class:`ServerClient`, the pooled
  keep-alive client tests, examples and the cluster frontend drive the
  API with;
* :mod:`repro.server.wire` — the HTTP/1.1 framing all three share: a
  head reader without :mod:`email`, one-send responses, and the
  client's raw socket transport.

HTTP answers uphold the canonical ranking contract: a ``top_r``
response's vertices and scores are identical to the in-process
:meth:`DiversityService.top_r` for the same snapshot.
"""

from repro.server.router import DiversityRouter
from repro.server.http import (
    DiversityHTTPServer,
    DiversityRequestHandler,
    result_payload,
    serve,
)
from repro.server.client import ServerClient

__all__ = [
    "DiversityHTTPServer",
    "DiversityRequestHandler",
    "DiversityRouter",
    "ServerClient",
    "result_payload",
    "serve",
]
