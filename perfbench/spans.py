"""Outside-in tracing: wrap the public functions of each liedouble layer.

A :class:`Tracer` used as a context manager replaces every binding of each
target (the defining module, every liedouble module that imported it by
name, and the class for methods) with a wrapper that records a span, and
puts every original back on exit.  Scalar arithmetic gets counters only:
a span per field operation would cost more than the operation.

A span is ``[name, parent, op, start, end, self, dim, nnz]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or -1),
``op`` the op id set by the caller, ``self`` the duration minus the time
covered by child spans, and ``dim``/``nnz`` the size of the returned object
where it has one.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (metric prefix, module, attribute path).  Every public module-level
# function of each layer, plus the methods that do a layer's heavy work.
# The gl(n) index helpers are left out: they are trivial and called in
# loops, so a span would cost more than they do.
TARGETS = (
    ("liealg.abelian", "liealg", "abelian"),
    ("liealg.direct_sum", "liealg", "direct_sum"),
    ("liealg.structure_equal", "liealg", "structure_equal"),
    ("liealg.trace_form", "liealg", "trace_form"),
    ("liealg.bracket", "liealg", "LieAlgebra.bracket"),
    ("liealg.check_jacobi", "liealg", "LieAlgebra.check_jacobi"),
    ("liealg.killing_form", "liealg", "LieAlgebra.killing_form"),
    ("liealg.change_of_basis", "liealg", "LieAlgebra.change_of_basis"),
    ("liealg.Matrix.inverse", "liealg", "Matrix.inverse"),
    ("liealg.Matrix.determinant", "liealg", "Matrix.determinant"),
    ("liealg.Matrix.mul", "liealg", "Matrix.__mul__"),
    ("manin.check_compatibility", "manin", "check_compatibility"),
    ("manin.build_double", "manin", "build_double"),
    ("manin.check_isotropic_pairing", "manin", "check_isotropic_pairing"),
    ("manin.check_ad_invariance", "manin", "check_ad_invariance"),
    ("bialg.cocommutator_from_triple", "bialg", "cocommutator_from_triple"),
    ("bialg.express_in_basis", "bialg", "express_in_basis"),
    ("bialg.dual_algebra", "bialg", "dual_algebra"),
    ("bialg.check_cojacobi", "bialg", "check_cojacobi"),
    ("bialg.check_cocycle", "bialg", "check_cocycle"),
    ("bialg.build_rmatrix", "bialg", "build_rmatrix"),
    ("bialg.coboundary", "bialg", "coboundary"),
    ("bialg.schouten_bracket", "bialg", "schouten_bracket"),
    ("bialg.schouten_check", "bialg", "schouten_check"),
    ("bialg.split_twist", "bialg", "split_twist"),
    ("bialg.identify_central", "bialg", "identify_central"),
    ("bialg.TwoTensor.transport", "bialg", "TwoTensor.transport"),
    ("glnfactory.build_s_plus", "glnfactory", "build_s_plus"),
    ("glnfactory.build_s_minus", "glnfactory", "build_s_minus"),
    ("glnfactory.build_gln_triple", "glnfactory", "build_gln_triple"),
    ("glnfactory.gln_change_of_basis", "glnfactory", "gln_change_of_basis"),
    ("glnfactory.fundamental_representation", "glnfactory", "fundamental_representation"),
    ("glnfactory.build_gln_tn", "glnfactory", "build_gln_tn"),
    ("glnfactory.gln_tn_trace_form", "glnfactory", "gln_tn_trace_form"),
    ("glnfactory.double_in_gln_basis", "glnfactory", "double_in_gln_basis"),
    ("glnfactory.delta_in_gln_basis", "glnfactory", "delta_in_gln_basis"),
    ("glnfactory.verify_double_is_gln", "glnfactory", "verify_double_is_gln"),
    ("glnfactory.check_chain_embedding", "glnfactory", "check_chain_embedding"),
    ("algfile.parse_algebra_file", "algfile", "parse_algebra_file"),
    ("algfile.format_algebra_file", "algfile", "format_algebra_file"),
    ("algfile.from_algebra", "algfile", "from_algebra"),
    ("algfile.AlgebraFile.to_algebra", "algfile", "AlgebraFile.to_algebra"),
    ("cli.verify_suite", "cli", "verify_suite"),
    ("cli.run_command", "cli", "run_command"),
)
LAYERS = ("liealg", "manin", "bialg", "glnfactory", "algfile", "cli")

# Scalar field operations counted by the tracer: counter name -> methods.
SCALAR_COUNTERS = (
    ("scalars.mul", ("__mul__", "__rmul__")),
    ("scalars.add", ("__add__", "__radd__", "__sub__", "__rsub__")),
    ("scalars.inverse", ("inverse",)),
)

# Span name -> (counter, size of the first argument added to it per call).
ARG_COUNTERS = {"algfile.parse_algebra_file": ("algfile.bytes_parsed", len)}

NAME, PARENT, OP, START, END, SELF, DIM, NNZ = range(8)


def liedouble_modules():
    """Every imported liedouble module, the package included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "liedouble" or name.startswith("liedouble."))]


def _size(value):
    """(dim, nnz) of a returned liedouble object, or (None, None)."""
    inner = getattr(value, "algebra", None)  # DoubleAlgebra
    if inner is not None and hasattr(inner, "tensor"):
        value = inner
    if hasattr(value, "tensor") and hasattr(value, "dim"):  # LieAlgebra
        return value.dim, sum(len(c) for _, c in value.tensor.stored())
    if hasattr(value, "rows") and hasattr(value, "entry"):  # Matrix
        nnz = sum(1 for i in range(value.rows) for j in range(value.cols) if value.entry(i, j))
        return value.rows, nnz
    if hasattr(value, "dim") and hasattr(value, "items"):  # Cocommutator
        return value.dim, sum(len(t.items()) for _, t in value.items())
    if hasattr(value, "violations"):  # ViolationReport, ChainReport
        return None, len(value.violations)
    return None, None


class Tracer:
    """Patch every binding of TARGETS on enter, restore them all on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter, measure = ARG_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += measure(args[0])
            span = [name, stack[-1][0] if stack else -1, self.op, 0.0, 0.0, 0.0, None, None]
            index = len(spans)
            spans.append(span)
            frame = [index, 0.0]  # [span index, time covered by children]
            stack.append(frame)
            span[START] = start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = end = time.perf_counter()
                stack.pop()
                duration = end - start
                span[SELF] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            span[DIM], span[NNZ] = _size(result)
            return result

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = liedouble_modules()
        package = sys.modules["liedouble"]
        try:
            for name, module_name, path in TARGETS:
                module = getattr(package, module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:  # a method: one binding, on its class
                    owner = getattr(module, owner_name)
                    self._set(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
                    continue
                original = getattr(module, attr)
                wrapper = self._span_wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            scalar = package.scalars.Scalar
            for name, methods in SCALAR_COUNTERS:
                for attr in methods:
                    self._set(scalar, attr, self._count_wrapper(name, getattr(scalar, attr)))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self.restore()
        return False


def leftover_wrappers() -> list[str]:
    """Names in liedouble modules and classes still bound to a wrapper."""
    found = []
    for mod in liedouble_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "__perfbench_wrapped__"):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    if hasattr(member, "__perfbench_wrapped__"):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


def self_times(spans) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = {}
    for span in spans:
        out[span[NAME]] = out.get(span[NAME], 0.0) + span[SELF]
    return out


def call_counts(spans) -> Counter:
    """Number of spans per name."""
    return Counter(span[NAME] for span in spans)
