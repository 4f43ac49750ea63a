"""In-memory spans around calls into the pianofinger modules.

The library itself carries no instrumentation.  :meth:`Tracer.install`
wraps every public function defined in each layer module and rebinds it
wherever the package holds a reference to it (the defining module, the
modules that imported it by name, the package namespace), so calls into
a layer from another layer, from the CLI or from the benchmark open a
span.  Calls inside one layer run unwrapped, except for the operations
in ``NAMED``, which always open a span and record a few O(1) facts about
their arguments and result (notes, bytes, fallbacks).

A span is (name, start, end, parent span, request id).  Spans live in
flat arrays while the run lasts and are written out when it ends.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import types
from array import array

LAYERS = (
    "pig_io",
    "dataset",
    "pitch_space",
    "note_hmm",
    "chord_hmm",
    "estimate",
    "eval_measures",
    "agreement",
    "model_io",
    "experiments",
    "cli",
)


def _notes(pieces):
    return sum(len(p) for p in pieces)


# name -> extractor(args, kwargs, result) giving the facts metrics need
NAMED = {
    "pig_io.parse_fingering_file": lambda a, k, r: {"notes": len(r)},
    "pig_io.serialize_fingering_file": lambda a, k, r: {"notes": len(a[0])},
    "dataset.load_piece": lambda a, k, r: {"notes": len(r)},
    "dataset.load_corpus": lambda a, k, r: {"notes": _notes(r)},
    "dataset.load_ground_truth_sets": lambda a, k, r: {
        "notes": sum(len(s.piece) * len(s) for s in r)
    },
    "note_hmm.train": lambda a, k, r: {"notes": _notes(a[0])},
    "note_hmm.decode_viterbi": lambda a, k, r: {
        "notes": len(a[1]),
        "fallback": bool(r.crossing_fallback_used),
    },
    "note_hmm.sequence_log_score": lambda a, k, r: {"notes": len(a[1])},
    "chord_hmm.cluster_chords": lambda a, k, r: {"notes": len(a[0])},
    "chord_hmm.train_chord": lambda a, k, r: {"notes": _notes(a[0])},
    "chord_hmm.decode_chords": lambda a, k, r: {
        "notes": len(r.fingers_by_note),
        "chords": len(r.states),
        "relaxed": len(r.relaxed_boundaries),
    },
    "eval_measures.match_rate_report": lambda a, k, r: {
        "note_gt": len(a[0]) * len(a[1])
    },
    "eval_measures.recombination_match_rate": lambda a, k, r: {
        "note_gt": len(a[0]) * len(a[1])
    },
    "agreement.analyze_sets": lambda a, k, r: {
        "note_annotator": sum(len(s.piece) * len(s) for s in a[0])
    },
    "model_io.dumps_model": lambda a, k, r: {"bytes": len(r)},
    "model_io.loads_model": lambda a, k, r: {"bytes": len(a[0])},
    "experiments.train_model": lambda a, k, r: {"kind": a[0]},
    "experiments.evaluate_model": lambda a, k, r: {"kind": type(a[0]).__name__},
}


class Tracer:
    """Span store plus the wrapping that feeds it."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self.info: dict = {}          # span index -> facts from NAMED
        self.request_id = 0
        self._stack: list = []        # (span index, layer)
        self._patched: list = []      # (namespace, attribute, original)

    # --- spans ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, layer: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append((idx, layer))
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    # --- wrapping -------------------------------------------------------

    def _wrap(self, fn, layer: str, qualname: str):
        tracer = self
        extract = NAMED.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if extract is None and stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            idx = tracer.open(qualname, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extract is not None:
                try:
                    tracer.info[idx] = extract(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the facts, not the span
            return result

        return traced

    def install(self) -> None:
        pkg = "pianofinger"
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for attr, obj in vars(module).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    originals[id(obj)] = (
                        obj, self._wrap(obj, layer, f"{layer}.{attr}")
                    )
        for name, module in list(sys.modules.items()):
            if module is None or not (name == pkg or name.startswith(pkg + ".")):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((namespace, attr, obj))
                    namespace[attr] = hit[1]

    def uninstall(self) -> None:
        for namespace, attr, obj in reversed(self._patched):
            namespace[attr] = obj
        self._patched.clear()

    # --- analysis -------------------------------------------------------

    def self_times(self, requests=None) -> dict:
        """Self nanoseconds and span count per layer, over spans whose
        request id is in ``requests`` (all when None)."""
        child = [0] * len(self)
        for i in range(len(self)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(len(self)):
            if requests is not None and self.request[i] not in requests:
                continue
            layer = self.name_of(i).split(".", 1)[0]
            ns, calls = out.get(layer, (0, 0))
            out[layer] = (ns + self.end[i] - self.start[i] - child[i], calls + 1)
        return out

    def spans_named(self, name: str, requests=None):
        """(index, duration ns, facts) of every span with this name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [
            (i, self.end[i] - self.start[i], self.info.get(i, {}))
            for i in range(len(self))
            if self.name_id[i] == nid
            and (requests is None or self.request[i] in requests)
        ]

    def write(self, path) -> None:
        """Names, then one tab-separated span per line:
        index, parent, request, name, start ns, end ns."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# index\tparent\trequest\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request[i]}\t"
                    f"{names[self.name_id[i]]}\t{self.start[i]}\t{self.end[i]}\n"
                )
