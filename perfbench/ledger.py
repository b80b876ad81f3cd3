"""Host-cost ledger: a deterministic profile split by ``repro`` layer.

Every profiled function is attributed to the ``repro`` subpackage whose
file defines it (modules directly under ``repro`` count as ``root``,
this benchmark's own files as ``bench``).  Builtins are not profiled on
their own, so their time is self time of the Python function that called
them; standard-library functions charge their self time to the layer of
each caller, edge by edge.  The per-layer self times therefore add up to
the whole profiled time.  An *entry call* is a call into a layer's
function from a caller owned by another layer, read from the profile's
caller edges.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Optional

LAYERS = (
    "sim", "hw", "ree", "tee", "crypto", "llm", "core", "serve", "fleet",
    "obs", "workloads", "analysis", "faults", "root", "bench",
)


class Ledger:
    """Accumulates a cProfile over every traced pass of one run."""

    def __init__(self, package_dir: str, bench_dir: str):
        self.package_dir = os.path.abspath(package_dir) + os.sep
        self.bench_dir = os.path.abspath(bench_dir) + os.sep
        self.profile = cProfile.Profile(builtins=False)
        self.requests = 0

    def __enter__(self) -> "Ledger":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def _file_layer(self, func) -> Optional[str]:
        filename = os.path.abspath(func[0]) if func[0] != "~" else ""
        if filename.startswith(self.package_dir):
            parts = filename[len(self.package_dir):].split(os.sep)
            return "root" if len(parts) == 1 else parts[0]
        if filename.startswith(self.bench_dir):
            return "bench"
        return None

    def metrics(self) -> Dict[str, float]:
        stats = pstats.Stats(self.profile).stats
        owners: Dict[tuple, str] = {}

        def owner(func, seen=frozenset()) -> str:
            if func in owners:
                return owners[func]
            layer = self._file_layer(func)
            if layer is None:
                layer = "bench"  # called from the benchmark's top level
                callers = stats[func][4] if func in stats else {}
                for caller, _edge in sorted(
                    callers.items(), key=lambda item: -item[1][0]
                ):
                    if caller not in seen and caller != func:
                        layer = owner(caller, seen | {func})
                        break
            owners[func] = layer
            return layer

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        entries = dict.fromkeys(LAYERS, 0)
        for func, (_cc, nc, tt, _ct, callers) in stats.items():
            layer = self._file_layer(func)
            if layer is None:
                if not callers:
                    self_s["bench"] += tt
                for caller, (_enc, _ecc, edge_tt, _ect) in callers.items():
                    self_s[owner(caller)] += edge_tt
                continue
            self_s[layer] += tt
            calls[layer] += nc
            for caller, (edge_nc, _ecc, _ett, _ect) in callers.items():
                if owner(caller) != layer:
                    entries[layer] += edge_nc
        n = max(1, self.requests)
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out["%s.host_self_ms_per_req" % layer] = 1e3 * self_s[layer] / n
            out["%s.calls_per_req" % layer] = calls[layer] / n
            out["%s.entry_calls_per_req" % layer] = entries[layer] / n
        return out
