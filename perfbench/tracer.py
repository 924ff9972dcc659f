"""Run one `fubini` CLI invocation in-process, traced from outside the program.

Usage: python3 perfbench/tracer.py --out TRACE.json [--light] -- <fubini args>

The program is not modified. After `fubini.cli` is imported, the public names
each `fubini.*` module imports from another layer are rebound to wrappers
(`hooks` is left alone), and the methods of `Polynomial`, `TruncatedSeries`
and the distribution classes are wrapped on the class. A layer is a module of
`src/fubini`. Every wrapper keeps a layer stack, so a layer's self time is its
inclusive time minus the time of the nested calls into other layers, and a
call from a layer into itself passes straight through.

Hot scalar accessors (millions of calls in `verify --suite all`) keep only
aggregate counters and timers. Every other layer call also records a span
(op -> checker -> layer call) in memory, for its first SPAN_CAP calls per
function; later calls are counted only. Spans and counters are written once,
at exit, to the --out file.

With --light only the identity checkers are wrapped (28 spans per suite run):
that run gives the per-checker seconds and the untraced stdout that the full
trace must reproduce byte for byte.

stdout carries exactly what the CLI prints; the trace goes to --out only.
"""

from __future__ import annotations

import argparse
import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time
from fractions import Fraction

LAYERS = (
    "cli",
    "identities",
    "probabilistic",
    "families",
    "combinat",
    "distributions",
    "series",
    "poly",
    "rational",
    "sampling",
)
# Layers whose returned values feed `<layer>.max_bits`.
BITS_LAYERS = frozenset({"probabilistic", "poly", "series"})
# Scalar accessors called millions of times: counters and timers only, no spans.
HOT = frozenset(
    {
        "rational.as_rational",
        "rational.format_rational",
        "combinat.factorial",
        "combinat.binomial",
        "combinat.stirling1",
        "combinat.stirling2",
        "combinat.lah",
        "combinat.stirling2_degenerate",
        "combinat.falling_factorial_poly",
        "probabilistic.raw_moment",
        "probabilistic.sum_raw_moment",
        "probabilistic.degenerate_moment",
        "probabilistic.sum_degenerate_moment",
        "probabilistic.prob_stirling2",
        "distributions.moment_formula",
        "distributions.spec_string",
        "distributions.__init__",
        "poly.__init__",
        "poly.coefficient",
        "poly.evaluate",
        "poly.__call__",
        "poly.__add__",
        "poly.__radd__",
        "poly.__sub__",
        "poly.__rsub__",
        "poly.__neg__",
        "poly.__mul__",
        "poly.__rmul__",
        "poly.__eq__",
        "poly.__hash__",
        "poly.__bool__",
        "poly.degree",
        "series.__init__",
        "series.__eq__",
        "series.egf_coefficient",
    }
)
SPAN_CAP = 200
# Public functions whose distinct-key ratio is measured, with the position of
# lam among their arguments (the memo normalises it to a Fraction).
KEYED = {
    "prob_stirling2": 3,
    "sum_degenerate_moment": 3,
}


def _bits(value) -> int:
    kind = type(value)
    if kind is Fraction:
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if kind is int:
        return value.bit_length()
    if kind is list or kind is tuple:
        return max(map(_bits, value), default=0)
    coeffs = getattr(value, "coeffs", None)
    if coeffs:
        return max(
            max(c.numerator.bit_length(), c.denominator.bit_length()) for c in coeffs
        )
    return 0


class Tracer:
    """Layer stack, per-layer counters and the span list of one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.origin = self.clock()
        # frames: [layer, time spent in nested calls into other layers]
        self.stack: list[list] = []
        self.layers = {name: {"calls": 0, "self_s": 0.0, "errors": 0} for name in LAYERS}
        self.functions: dict[str, list] = {}
        self.max_bits = {name: 0 for name in sorted(BITS_LAYERS)}
        self.keys = {name: set() for name in KEYED}
        self.keyed_calls = {name: 0 for name in KEYED}
        self.draws = 0
        self.checkers: list[dict] = []
        self.spans: list[tuple] = []
        self.span_stack: list[int] = []

    # --- spans ---

    def open_span(self, name: str) -> tuple[int, float]:
        parent = self.span_stack[-1] if self.span_stack else -1
        index = len(self.spans)
        self.spans.append((name, parent, self.clock() - self.origin, None))
        self.span_stack.append(index)
        return index, self.clock()

    def close_span(self, index: int) -> None:
        self.span_stack.pop()
        name, parent, start, _ = self.spans[index]
        self.spans[index] = (name, parent, start, self.clock() - self.origin)

    # --- layer boundaries ---

    def enter(self, layer: str) -> list:
        frame = [layer, 0.0]
        self.stack.append(frame)
        return frame

    def leave(self, frame: list, elapsed: float) -> None:
        self.stack.pop()
        self.layers[frame[0]]["self_s"] += elapsed - frame[1]
        if self.stack:
            self.stack[-1][1] += elapsed

    def boundary(self, layer: str, name: str, fn, *, method: bool = False):
        """Wrap fn as an entry into `layer`; `name` is `<layer>.<attr>`."""
        tracer = self
        stats = self.functions.setdefault(name, [0, 0.0, 0])
        layer_stats = self.layers[layer]
        clock = self.clock
        stack = self.stack
        measure_bits = layer in BITS_LAYERS and not name.endswith(".__hash__")
        bits_of_self = method and name.endswith(".__init__")
        hot = name in HOT

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = -1 if hot or stats[0] >= SPAN_CAP else tracer.open_span(name)[0]
            frame = tracer.enter(layer)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                layer_stats["errors"] += 1
                raise
            finally:
                elapsed = clock() - t0
                tracer.leave(frame, elapsed)
                stats[0] += 1
                stats[1] += elapsed
                layer_stats["calls"] += 1
                if span >= 0:
                    tracer.close_span(span)
            if measure_bits:
                b = _bits(args[0] if bits_of_self else result)
                if b > tracer.max_bits[layer]:
                    tracer.max_bits[layer] = b
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def keyed(self, attr: str, fn):
        """Count calls and distinct memo keys of a public function, from anywhere."""
        keys = self.keys[attr]
        calls = self.keyed_calls
        lam_pos = KEYED[attr]

        def wrapper(*args):
            calls[attr] += 1
            key = list(args)
            key[lam_pos] = Fraction(key[lam_pos])
            keys.add(tuple(key))
            return fn(*args)

        return wrapper

    def counted_draw(self, fn):
        tracer = self

        def wrapper(dist, size, seed):
            result = fn(dist, size, seed)
            tracer.draws += len(result)
            return result

        return wrapper

    def checker(self, fn):
        """Wrap identities.check_identity: one span and one timing per checker."""
        tracer = self

        def wrapper(identity, cfg):
            index, t0 = tracer.open_span("identities.check:" + str(getattr(identity, "value", identity)))
            report = fn(identity, cfg)
            elapsed = tracer.clock() - t0
            tracer.close_span(index)
            tracer.checkers.append(
                {"id": report.identity.value, "s": elapsed, "cases": report.cases}
            )
            return report

        return wrapper

    def to_dict(self) -> dict:
        return {
            "layers": self.layers,
            "functions": self.functions,
            "max_bits": self.max_bits,
            "distinct_keys": {k: len(v) for k, v in self.keys.items()},
            "keyed_calls": self.keyed_calls,
            "draws": self.draws,
            "checkers": self.checkers,
            "spans": self.spans,
        }


class _TimedImports(importlib.abc.MetaPathFinder):
    """Attribute the import self time of each fubini module to its layer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "fubini" and not fullname.startswith("fubini."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        tracer = self.tracer
        layer = fullname.rpartition(".")[2] if "." in fullname else "cli"
        exec_module = loader.exec_module

        def timed_exec(module):
            frame = [layer, 0.0]
            tracer.stack.append(frame)
            t0 = tracer.clock()
            try:
                exec_module(module)
            finally:
                elapsed = tracer.clock() - t0
                tracer.stack.pop()
                if layer in tracer.layers:
                    tracer.layers[layer]["self_s"] += elapsed - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += elapsed

        loader.exec_module = timed_exec
        return spec


def _wrap_methods(tracer: Tracer, cls, layer: str, names) -> None:
    for attr in names:
        raw = cls.__dict__.get(attr)
        label = f"{layer}.{attr}"
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.boundary(layer, label, raw.__func__)))
        elif isinstance(raw, property):
            setattr(cls, attr, property(tracer.boundary(layer, label, raw.fget, method=True)))
        elif callable(raw):
            setattr(cls, attr, tracer.boundary(layer, label, raw, method=True))


def install(tracer: Tracer, modules: dict) -> None:
    """Rebind every cross-layer public name and wrap the value classes."""
    inner = {}
    prob = modules["probabilistic"]
    for attr in KEYED:
        original = getattr(prob, attr)
        inner[original] = tracer.keyed(attr, original)
        setattr(prob, attr, inner[original])
    sampling = modules["sampling"]
    inner[sampling.draw] = tracer.counted_draw(sampling.draw)
    sampling.draw = inner[sampling.draw]

    wrappers = {}
    for importer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            origin = obj.__module__
            if not origin.startswith("fubini."):
                continue
            layer = origin.rpartition(".")[2]
            if layer not in LAYERS or layer == importer:
                continue
            if obj not in wrappers:
                wrappers[obj] = tracer.boundary(layer, f"{layer}.{attr}", inner.get(obj, obj))
            setattr(module, attr, wrappers[obj])

    for cls in (modules["poly"].Polynomial, modules["series"].TruncatedSeries):
        layer = cls.__module__.rpartition(".")[2]
        names = [a for a, v in vars(cls).items() if callable(v) or isinstance(v, (classmethod, property))]
        _wrap_methods(tracer, cls, layer, names)
    dist = modules["distributions"]
    for cls in (dist.PointMass, dist.Bernoulli, dist.Poisson, dist.Gamma, dist.FiniteDiscrete):
        _wrap_methods(tracer, cls, "distributions", ("__init__", "moment_formula", "spec_string"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="Write the trace JSON here.")
    parser.add_argument("--light", action="store_true", help="Wrap only the identity checkers.")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = Tracer()
    finder = None
    if not opts.light:
        finder = _TimedImports(tracer)
        sys.meta_path.insert(0, finder)
    t_import = tracer.clock()
    import fubini.cli as cli_module  # noqa: E402  (timed, after the finder is in place)

    import_s = tracer.clock() - t_import
    if finder is not None:
        sys.meta_path.remove(finder)
    modules = {name: sys.modules[f"fubini.{name}"] for name in LAYERS}

    identities = modules["identities"]
    identities.check_identity = tracer.checker(identities.check_identity)
    if not opts.light:
        install(tracer, modules)

    code = 0
    op_span, t0 = tracer.open_span("op:" + " ".join(cli_args[:1]))
    frame = tracer.enter("cli")
    try:
        cli_module.main(args=cli_args, prog_name="fubini", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except BaseException:
        tracer.layers["cli"]["errors"] += 1
        code = 1
        raise
    finally:
        wall = tracer.clock() - t0
        tracer.leave(frame, wall)
        tracer.layers["cli"]["calls"] += 1
        tracer.close_span(op_span)
        sys.stdout.flush()
        doc = tracer.to_dict()
        doc.update({"light": opts.light, "exit": code, "main_s": wall, "import_s": import_s})
        with open(opts.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
