"""Traced entry point: one sglap CLI invocation with each layer wrapped in spans.

    python perfbench/launcher.py SPAWN_NS SPANS_JSON CLI_ARG...

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
interpreter, so the first span, cli.import, covers interpreter start plus
`import sglap.cli`.  The public functions named below are replaced, in every
loaded sglap module that holds them, by wrappers that record spans (or only
count calls, where a span per call would swamp the run).  Spans stay in
memory and are written to SPANS_JSON when the CLI returns.  A name missing
from the tree under test is listed as absent instead of failing the run.
"""
import functools
import json
import sys
import time

SPANNED = (
    "address.build_level_graph",
    "address.LevelGraph.vertex_ids",
    "harmonic.cell_values_to_vertex",
    "harmonic.graph_laplacian",
    "decimation.SpectralEigenfunction.cell_values",
    "decimation.sequence_from_limit",
    "decimation.enumerate_dirichlet_spectrum",
    "decimation.EigenvalueSequence.limit",
    "special.psi_limit_with_error",
    "special.upsilon_with_error",
    "special.tau",
    "tangent.tangent_at",
    "oracle.dense_dirichlet_spectrum",
    "oracle.direct_tangent_limit",
)
COUNTED = (
    "address.resolve_addresses",
    "harmonic.harmonic_pullback",
    "decimation.SpectralEigenfunction.cell_triple",
    "tangent.m0_matrix",
)
# span name -> (measure, size of the returned value); the largest is kept
SIZES = {
    "address.build_level_graph": ("vertices", lambda graph: graph.size),
    "decimation.enumerate_dirichlet_spectrum": ("lines", len),
    "oracle.dense_dirichlet_spectrum": ("order", lambda spectrum: spectrum.count),
}
# reported name -> lru_cache-wrapped function read through cache_info()
CACHES = {
    "decimation.eigen_matrices": "decimation.eigen_matrices",
    "special.psi_limit": "special._psi_limit",
}


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.sizes = {}

    def call(self, name, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.monotonic_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[index] = (name, start, time.monotonic_ns(), parent)
            self.stack.pop()

    def spanned(self, name, fn):
        measure = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if measure is not None:
                key = f"{name}.{measure[0]}"
                self.sizes[key] = max(self.sizes.get(key, 0), measure[1](result))
            return result
        return wrapper

    def counted(self, name, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _resolve(dotted):
    """(owner, attribute, current value) for `layer.name` or `layer.Class.name`."""
    layer, *path = dotted.split(".")
    owner = sys.modules[f"sglap.{layer}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


def install(recorder):
    """Wrap every target; return the names that this tree does not have."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "sglap" or name.startswith("sglap."))]
    absent = []
    for dotted, make in [(n, recorder.spanned) for n in SPANNED] + \
                        [(n, recorder.counted) for n in COUNTED]:
        try:
            owner, attr, original = _resolve(dotted)
        except (KeyError, AttributeError):
            absent.append(dotted)
            continue
        wrapper = make(dotted, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        # `from .address import build_level_graph` copies the reference, so
        # rebind it wherever it was imported
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return absent


def cache_counts(absent):
    out = {}
    for name, dotted in CACHES.items():
        try:
            info = _resolve(dotted)[2].cache_info()
        except (KeyError, AttributeError):
            absent.append(name)
            continue
        out[name] = [info.hits, info.misses]
    return out


def main():
    spawn_ns, spans_path, cli_args = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import sglap.cli
    recorder = Recorder()
    recorder.spans.append(("cli.import", spawn_ns, time.monotonic_ns(), None))
    absent = install(recorder)
    code = 1
    try:
        code = recorder.call("cli.main", sglap.cli.main, cli_args)
    except SystemExit as exc:  # argparse rejects usage this way
        code = exc.code
    finally:
        sys.stdout.flush()
        record = {"spans": recorder.spans, "counts": recorder.counts,
                  "sizes": recorder.sizes, "caches": cache_counts(absent), "absent": absent}
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
