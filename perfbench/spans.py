"""In-memory spans around calls into the fdstbc layers.

The program itself has no tracing yet, so the traced run wraps the
layers' public functions at the module attributes their callers look
up at call time, and restores them afterwards.  A span records name,
start, end, parent span, request id and a few tags (counts taken from
the call's arguments and result).  A span's self time is its duration
minus the durations of its direct children; calls are synchronous, so
children never overlap.  Work done inside simulate's worker processes
is seen only as part of the parent's run_ber span.
"""

from contextlib import contextmanager
import functools
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    @contextmanager
    def span(self, name: str, **tags):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "request": self.request, "tags": tags, "child_s": 0.0}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if rec["parent"] is not None:
                self.spans[rec["parent"]]["child_s"] += rec["end"] - rec["start"]

    def wrap(self, fn, name, tagger=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if tagger is not None:
                    rec["tags"].update(tagger(args, out))
                return out
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        saved = []
        try:
            for module, attr, name, tagger in _bindings():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name, tagger))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def duration(rec) -> float:
    return rec["end"] - rec["start"]


def self_time(rec) -> float:
    return duration(rec) - rec["child_s"]


def _run_ber_tags(args, res):
    from fdstbc.simulate import CHUNK

    cfg = args[0]
    points = len(cfg.snr_grid_db)
    return {"constellation": cfg.constellation.name, "decoder": cfg.decoder,
            "codewords": cfg.codewords_per_point * points,
            "chunks": points * -(-cfg.codewords_per_point // CHUNK),
            "bit_errors": sum(p.bit_errors for p in res.points)}


def _gain_tags(args, rep):
    if rep.method == "exhaustive":
        route = "exhaustive"
    else:
        route = "aggregated_int" if rep.gain_exact is not None else \
            "aggregated_float"
    return {"constellation": args[0].name, "route": route}


def _bindings():
    """(module, attribute, span name, tagger) for each traced call site."""
    from fdstbc import cli, gain, number_theory as nt, optimizer as opt
    from fdstbc import constellations as cs

    sweeps = [(nt, f"sweep_{s}", f"number_theory.{s}",
               lambda a, r: {"checked": r.checked, "failures": r.failures})
              for s in ("dichotomy", "euler_identity", "cross_term_exhaustive",
                        "cross_term_random")]
    size = lambda a, r: {"size": len(r)}
    return [
        (cli, "run_ber", "simulate.run_ber", _run_ber_tags),
        (cs, "constellation_by_id", "constellations.constellation_by_id",
         None),
        (gain, "difference_set", "constellations.difference_set", size),
        (opt, "difference_set", "constellations.difference_set", size),
        (cli, "coding_gain", "gain.coding_gain", _gain_tags),
        (opt, "coding_gain", "gain.coding_gain", _gain_tags),
        (cli, "golden_coding_gain", "gain.golden_coding_gain", None),
        (opt, "optimize", "optimizer.optimize", None),
        (opt, "build_case1_table", "optimizer.build_case1_table",
         lambda a, t: {"rows": t.n_rows}),
        (opt, "optimize_step1", "optimizer.optimize_step1",
         lambda a, r: {"breakpoints": r.breakpoints_examined}),
        (opt, "verify_step2", "optimizer.verify_step2", None),
        (nt, "run_sweeps", "number_theory.run_sweeps", None),
    ] + sweeps
