"""Per-layer spans around spinladder's module-level entry points.

The drivers call the layers through names they resolve at call time from
module namespaces (``experiments.build_hamiltonian`` after a from-import,
``io.write_trajectory`` through the module object). Installing the tracer
replaces every binding of each traced function, in every loaded spinladder
module, with a wrapper that records a span; the package source is untouched.

A layer metric's time is the self time of its spans: a span's duration minus
the part covered by its child spans, so nested calls are never counted twice
and ``experiments.self_s`` (traced wall minus all spans) is what the drivers
spend between layer calls. A traced name that no longer exists makes the
metrics that depend on it absent instead of failing the run.
"""

import functools
import importlib
import inspect
import sys
import time

# bucket -> the functions whose spans feed it, as (module, attribute).
BUCKETS = {
    "cli.config_s": [("spinladder.cli", "_build_parser"), ("spinladder.cli", "_resolve_config"),
                     ("spinladder.io", "config_params"), ("spinladder.io", "config_grid"),
                     ("spinladder.io", "config_floats"), ("spinladder.io", "config_echo")],
    "lattice.build_s": [("spinladder.lattice", "build_hamiltonian"),
                        ("spinladder.lattice", "build_initial_state")],
    "evolution.eigh_s": [("spinladder.evolution", "diagonalize")],
    "evolution.evolve_s": [("spinladder.evolution", "iter_evolved")],
    "metrics.reduce_s": [("spinladder.experiments", "_reduced_many")],
    "metrics.concurrence_s": [("spinladder.metrics", "_concurrence_many")],
    "metrics.fidelity_s": [("spinladder.metrics", "_fidelity_many")],
    "metrics.entropy_s": [("spinladder.metrics", "_entropy_many")],
    "signals.extract_s": [("spinladder.signals", "envelope_period"),
                          ("spinladder.signals", "dominant_frequency"),
                          ("spinladder.signals", "find_peaks"),
                          ("spinladder.signals", "loglog_fit"),
                          ("spinladder.signals", "extract_alpha"),
                          ("spinladder.signals", "effective_coupling_from_period")],
    "io.write_s": [("spinladder.io", "write_trajectory"), ("spinladder.io", "write_sweep"),
                   ("spinladder.io", "write_heatmap"), ("spinladder.io", "write_ensemble"),
                   ("spinladder.io", "write_table"), ("spinladder.io", "write_sidecar")],
}

# count metric -> the function that produces it.
COUNT_SOURCES = {
    "lattice.build_calls": ("spinladder.lattice", "build_hamiltonian"),
    "lattice.h_bytes": ("spinladder.lattice", "build_hamiltonian"),
    "evolution.eigh_calls": ("spinladder.evolution", "diagonalize"),
    "evolution.eigh_dim3": ("spinladder.evolution", "diagonalize"),
    "evolution.points": ("spinladder.evolution", "iter_evolved"),
    "evolution.state_bytes": ("spinladder.evolution", "iter_evolved"),
    "metrics.rho_count": ("spinladder.experiments", "_reduced_many"),
    "metrics.concurrence_evals": ("spinladder.metrics", "_concurrence_many"),
    "signals.peaks_found": ("spinladder.signals", "find_peaks"),
}

# Functions whose series argument (or a trajectory's concurrence columns) is
# a written output; concurrence values reaching them count as useful.
_USEFUL_SINKS = (("spinladder.io", "write_trajectory"), ("spinladder.signals", "envelope_period"),
                 ("spinladder.signals", "dominant_frequency"))


class Tracer:
    """Span recorder for one traced CLI invocation."""

    def __init__(self):
        self.spans = []          # [bucket, start, end, parent index or None]
        self._open = []          # indices of the spans now running
        self.counts = {name: 0 for name in COUNT_SOURCES}
        self.useful_series = {}  # id -> series; holding it keeps the id unique
        self.absent = {}         # metric -> missing "module.attr"

    def install(self):
        """Wrap every traced function that exists; record the ones that do not."""
        wrappers = {}  # id(original) -> wrapper
        for bucket, sources in BUCKETS.items():
            for source in sources:
                fn = _lookup(source)
                if fn is None:
                    self.absent[bucket] = ".".join(source)
                else:
                    wrappers[id(fn)] = self._wrap(bucket, source, fn)
        for metric, source in COUNT_SOURCES.items():
            if _lookup(source) is None:
                self.absent[metric] = ".".join(source)
        for source in (*_USEFUL_SINKS, COUNT_SOURCES["metrics.concurrence_evals"]):
            if _lookup(source) is None:
                self.absent["metrics.concurrence_useful_ratio"] = ".".join(source)
        for name, module in list(sys.modules.items()):
            if name == "spinladder" or name.startswith("spinladder."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        setattr(module, attr, wrappers[id(value)])

    def _enter(self, bucket):
        parent = self._open[-1] if self._open else None
        self.spans.append([bucket, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._open.pop()][2] = time.perf_counter()

    def _wrap(self, bucket, source, fn):
        before = _ARG_HOOKS.get(source)
        hook = _RESULT_HOOKS.get(source)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                if before:
                    before(self, args)
                gen = fn(*args, **kwargs)
                while True:
                    self._enter(bucket)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._exit()
                    if hook:
                        hook(self, args, item)
                    yield item
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before:
                before(self, args)
            self._enter(bucket)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if hook:
                hook(self, args, result)
            return result
        return traced

    def layer_times(self):
        """Self time per bucket, in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        times = {bucket: 0.0 for bucket in BUCKETS}
        for k, (bucket, start, end, _) in enumerate(self.spans):
            times[bucket] += (end - start) - child[k]
        return times

    def report(self, wall_s):
        """Per-layer metrics of this invocation, absent ones left out."""
        out = dict(self.layer_times())
        out["experiments.self_s"] = wall_s - sum(out.values())
        out.update(self.counts)
        useful = sum(len(series.values) for series in self.useful_series.values())
        evals = self.counts["metrics.concurrence_evals"]
        # With no evaluation performed none was wasted.
        out["metrics.concurrence_useful_ratio"] = min(useful, evals) / evals if evals else 1.0
        return {name: value for name, value in out.items() if name not in self.absent}


def _lookup(source):
    module_name, attr = source
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


def _count_build(tracer, args, ham):
    tracer.counts["lattice.build_calls"] += 1
    tracer.counts["lattice.h_bytes"] += ham.nbytes


def _count_eigh(tracer, args, decomp):
    tracer.counts["evolution.eigh_calls"] += 1
    tracer.counts["evolution.eigh_dim3"] += len(decomp.eigenvalues) ** 3


def _count_evolved(tracer, args, item):
    block, states = item
    tracer.counts["evolution.points"] += len(block)
    tracer.counts["evolution.state_bytes"] += states.nbytes


def _count_rhos(tracer, args, rhos):
    tracer.counts["metrics.rho_count"] += rhos.shape[0]


def _count_concurrence(tracer, args, values):
    tracer.counts["metrics.concurrence_evals"] += len(values)


def _count_peaks(tracer, args, peaks):
    tracer.counts["signals.peaks_found"] += len(peaks)


def _written_trajectory(tracer, args):
    for series in args[0].pair_concurrence.values():
        tracer.useful_series[id(series)] = series


def _extracted_series(tracer, args):
    tracer.useful_series[id(args[0])] = args[0]


# Called with the arguments before the call, so a series counts as used
# even when extraction then fails and the row is flagged instead.
_ARG_HOOKS = {
    ("spinladder.io", "write_trajectory"): _written_trajectory,
    ("spinladder.signals", "envelope_period"): _extracted_series,
    ("spinladder.signals", "dominant_frequency"): _extracted_series,
}

_RESULT_HOOKS = {
    ("spinladder.lattice", "build_hamiltonian"): _count_build,
    ("spinladder.evolution", "diagonalize"): _count_eigh,
    ("spinladder.evolution", "iter_evolved"): _count_evolved,
    ("spinladder.experiments", "_reduced_many"): _count_rhos,
    ("spinladder.metrics", "_concurrence_many"): _count_concurrence,
    ("spinladder.signals", "find_peaks"): _count_peaks,
}
