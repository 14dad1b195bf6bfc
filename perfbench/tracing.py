"""Per-layer tracing by wrapping degstab's public functions from outside.

``Tracer.install`` replaces each traced function with a wrapper, rebinding
it in every loaded ``degstab`` module that imported it, so calls made
between modules are seen too; ``uninstall`` puts the originals back. No
code under ``src/`` changes. Each wrapper keeps a span stack, so a
function's self time is its own time minus the time of traced calls made
inside it. Counts are taken at the same boundaries: kernel nodes and
refutations, graph6 bytes, and repeats of identical calls keyed by value
(``Graph`` is frozen and hashable).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute path, metric prefix, extra counter). The attribute path
# names a function of the module or a method of one of its classes;
# ``Graph.__post_init__`` is the constructor's validation.
TRACED = (
    ("backend", "hom_search", "backend.hom_search", "kernel"),
    ("backend", "odd_girth", "backend.odd_girth", None),
    ("backend", "color_search", "backend.color_search", None),
    ("hom", "homomorphism_search", "hom.homomorphism_search", "repeat"),
    ("hom", "chromatic_number", "hom.chromatic_number", "repeat"),
    ("hom", "has_homomorphism", "hom.has_homomorphism", None),
    ("graphs", "Graph.__post_init__", "graphs.Graph", None),
    ("graphs", "blow_up", "graphs.blow_up", None),
    ("graphs", "odd_girth", "graphs.odd_girth", None),
    ("codecs", "decode", "codecs.decode", None),
    ("codecs", "encode", "codecs.encode", "bytes"),
    ("classify", "classify", "classify.classify", None),
    ("classify", "DeltaResult.validate", "classify.DeltaResult.validate", None),
    ("witness", "certify", "witness.certify", None),
    ("verify", "CorpusSpec.graphs", "verify.CorpusSpec.graphs", "generator"),
    ("verify", "check_hom_odd_girth", "verify.check_hom_odd_girth", None),
    ("verify", "check_haggkvist", "verify.check_haggkvist", None),
)

# The per-layer metrics reported, as (name, unit).
PER_LAYER = [
    ("backend.hom_search.calls", "count"),
    ("backend.hom_search.self_s", "s"),
    ("backend.hom_search.nodes", "count"),
    ("backend.hom_search.refuted", "count"),
    ("backend.hom_search.refuted_frac", "ratio"),
    ("backend.odd_girth.calls", "count"),
    ("backend.odd_girth.self_s", "s"),
    ("backend.color_search.calls", "count"),
    ("backend.color_search.self_s", "s"),
    ("hom.homomorphism_search.calls", "count"),
    ("hom.homomorphism_search.self_s", "s"),
    ("hom.homomorphism_search.repeat_frac", "ratio"),
    ("hom.chromatic_number.calls", "count"),
    ("hom.chromatic_number.self_s", "s"),
    ("hom.chromatic_number.repeat_frac", "ratio"),
    ("hom.has_homomorphism.calls", "count"),
    ("graphs.Graph.calls", "count"),
    ("graphs.Graph.self_s", "s"),
    ("graphs.blow_up.calls", "count"),
    ("graphs.blow_up.self_s", "s"),
    ("graphs.odd_girth.calls", "count"),
    ("codecs.decode.calls", "count"),
    ("codecs.decode.self_s", "s"),
    ("codecs.encode.calls", "count"),
    ("codecs.encode.self_s", "s"),
    ("codecs.encode.bytes", "count"),
    ("classify.classify.calls", "count"),
    ("classify.classify.self_s", "s"),
    ("classify.DeltaResult.validate.calls", "count"),
    ("classify.DeltaResult.validate.self_s", "s"),
    ("witness.certify.calls", "count"),
    ("witness.certify.self_s", "s"),
    ("verify.CorpusSpec.graphs.calls", "count"),
    ("verify.CorpusSpec.graphs.self_s", "s"),
    ("verify.check_hom_odd_girth.self_s", "s"),
    ("verify.check_haggkvist.self_s", "s"),
    ("trace_unattributed_s", "s"),
    ("trace_overhead_s", "s"),
]


class Tracer:
    """Span and counter bookkeeping for one traced pass. With
    ``record_kernel_calls`` the arguments of every backend kernel call are
    kept in ``kernel_calls`` for the parity check."""

    def __init__(self, record_kernel_calls: bool = False):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.kernel_calls: list | None = [] if record_kernel_calls else None
        self._children: list[float] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def _enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, name: str, start: float) -> None:
        elapsed = time.perf_counter() - start
        self.self_s[name] += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed

    def exclude(self, seconds: float) -> None:
        """Leave time spent by the benchmark itself, inside whatever traced
        call is running, out of every self time."""
        if self._children:
            self._children[-1] += seconds

    def _wrap(self, fn, name: str, extra: str | None):
        calls, counts, seen = self.calls, self.counts, set()
        enter, leave = self._enter, self._leave

        if extra == "generator":

            def traced_generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(name, start)
                    calls[name] += 1
                    yield item

            return traced_generator

        record = self.kernel_calls if name.startswith("backend.") else None

        def traced(*args, **kwargs):
            start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(name, start)
            calls[name] += 1
            if record is not None:
                record.append((fn.__name__, args))
            if extra == "kernel":
                counts[name + ".nodes"] += result[1]
                counts[name + ".refuted"] += result[0] is None
            elif extra == "repeat":
                if args in seen:
                    counts[name + ".repeats"] += 1
                else:
                    seen.add(args)
            elif extra == "bytes":
                counts[name + ".bytes"] += len(result)
            return result

        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "degstab" and m]
        for modname, path, name, extra in TRACED:
            owner = sys.modules[f"degstab.{modname}"]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, extra)
            if classes:
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def metrics(self, traced_wall: float, scale: float, overhead: float) -> dict[str, float]:
        """Every per-layer metric of PER_LAYER for the traced pass, given its
        raw wall time, its mean speed scale (applied to every time) and its
        speed-scaled excess over an untraced pass."""
        out: dict[str, float] = {}
        for _, _, name, extra in TRACED:
            out[name + ".calls"] = self.calls[name]
            out[name + ".self_s"] = self.self_s[name] * scale
            if extra == "repeat":
                out[name + ".repeat_frac"] = _ratio(self.counts[name + ".repeats"], self.calls[name])
        hs = "backend.hom_search"
        out[hs + ".nodes"] = self.counts[hs + ".nodes"]
        out[hs + ".refuted"] = self.counts[hs + ".refuted"]
        out[hs + ".refuted_frac"] = _ratio(self.counts[hs + ".refuted"], self.calls[hs])
        out["codecs.encode.bytes"] = self.counts["codecs.encode.bytes"]
        out["trace_unattributed_s"] = (traced_wall - sum(self.self_s.values())) * scale
        out["trace_overhead_s"] = overhead
        return {name: out[name] for name, _ in PER_LAYER}


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
