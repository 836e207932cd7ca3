"""Timing and counting wrappers for the traced benchmark pass.

The wrappers live here, not in f4poly: ``install`` replaces attributes of the
already-imported package.  Every reference to a wrapped object found in a
module namespace or a class dictionary of f4poly is replaced, so aliases go
through the same wrapper as the original (``representation.operator`` is
``oracle_operator``, ``Derivation.__call__`` is ``apply``,
``Polynomial.__rmul__`` is ``__mul__``).  Module-level calls look names up at
call time, so intra-module calls are caught too.

A span's self time is its duration minus the durations of the wrapped calls
made directly inside it.  A recursive call adds to ``total`` only at its
outermost level.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List

from f4poly import algebra, cli, dimensions, lattice, linalg, poly, representation

MODULES = (lattice, algebra, poly, linalg, representation, dimensions, cli)

# Span name -> (owner, attribute).  The span name is the metric prefix.
TIMED = (
    ("lattice.cocycle", lattice, "cocycle"),
    ("lattice.all_roots", lattice, "all_roots"),
    ("lattice.roots_by_reflection_closure", lattice, "roots_by_reflection_closure"),
    ("algebra.structure_table", algebra, "structure_table"),
    ("algebra.jacobi_failures", algebra, "jacobi_failures"),
    ("algebra.involution_is_automorphism_failures", algebra, "involution_is_automorphism_failures"),
    ("algebra.bracket", algebra, "bracket"),
    ("algebra.ad_on_v", algebra, "ad_on_v"),
    ("representation.singular_vectors", representation, "singular_vectors"),
    ("representation.products_span_kernels", representation, "products_span_kernels"),
    ("representation.laplacian_commutes_on_degree", representation, "laplacian_commutes_on_degree"),
    ("representation.apply_laplacian", representation, "apply_laplacian"),
    ("representation.generator_product", representation, "generator_product"),
    ("poly.derivation_apply", poly.Derivation, "apply"),
    ("poly.polynomial_mul", poly.Polynomial, "__mul__"),
    ("linalg.rank", linalg, "rank"),
    ("dimensions.series_mul", dimensions.TruncatedSeries, "__mul__"),
    ("dimensions.rhs_series", dimensions, "rhs_series"),
    ("dimensions.branching_sum", dimensions, "branching_sum"),
    ("cli.main", cli, "main"),
)


class Span:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Spans and counters of one process, written out once at exit."""

    def __init__(self) -> None:
        self.spans: Dict[str, Span] = {}
        self.counts: Dict[str, int] = {}
        self._open: List[float] = []  # time of wrapped children, per open span
        self._weyl_args: set = set()
        self._tables_seen: set = set()

    def timed(self, name: str, fn: Callable) -> Callable:
        span = self.spans.setdefault(name, Span())
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            span.depth += 1
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.depth -= 1
                span.self_time += elapsed - open_spans.pop()
                if not span.depth:
                    span.total += elapsed
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self) -> None:
        for name, owner, attr in TIMED:
            original = vars(owner)[attr]
            _replace_everywhere(original, self.timed(name, original))

        # Operator builds: time the uncached constructor under a fresh cache, so
        # calls count builds and cache hits cost what they cost untraced.
        oracle = representation.oracle_operator
        _replace_everywhere(
            oracle,
            functools.lru_cache(maxsize=None)(
                self.timed("representation.oracle_operator", oracle.__wrapped__)
            ),
        )

        weyl_dim = self.timed("dimensions.weyl_dim", dimensions.weyl_dim)

        def counted_weyl_dim(*args):
            self._weyl_args.add(args)
            return weyl_dim(*args)

        _replace_everywhere(dimensions.weyl_dim, counted_weyl_dim)

        monomials_of_degree = poly.monomials_of_degree

        def counted_monomials(degree):
            produced = 0
            try:
                for exp in monomials_of_degree(degree):
                    produced += 1
                    yield exp
            finally:
                self.count("poly.monomials_enumerated", produced)

        _replace_everywhere(monomials_of_degree, counted_monomials)

        degree_weight_table = self.timed("poly.degree_weight_table", poly.degree_weight_table)

        def counted_table(degree):
            table = degree_weight_table(degree)
            if degree not in self._tables_seen:
                self._tables_seen.add(degree)
                self.count("poly.weight_blocks", len(table))
                self.count(
                    "poly.dominant_monomials",
                    sum(len(block) for w, block in table.items() if min(w) >= 0),
                )
            return table

        _replace_everywhere(poly.degree_weight_table, counted_table)

        nullspace = self.timed("linalg.nullspace", linalg.nullspace)

        def counted_nullspace(rows, ncols):
            rows = list(rows)
            self.count("linalg.rows", len(rows))
            self.count("linalg.cols", ncols)
            self.count("linalg.nonzeros", sum(len(row) for row in rows))
            basis = nullspace(rows, ncols)
            self.count("linalg.kernel_dim", len(basis))
            return basis

        _replace_everywhere(linalg.nullspace, counted_nullspace)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["dimensions.weyl_dim.distinct"] = len(self._weyl_args)
        return {
            "spans": {
                name: [s.calls, s.total, s.self_time] for name, s in self.spans.items()
            },
            "counts": counts,
        }


def _replace_everywhere(original: object, replacement: object) -> None:
    """Point every f4poly module global and class attribute bound to original at replacement."""
    hits = 0
    for module in MODULES:
        owners = [module] + [
            value
            for value in vars(module).values()
            if isinstance(value, type) and value.__module__ == module.__name__
        ]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, replacement)
                    hits += 1
    if not hits:
        raise LookupError(f"no f4poly attribute refers to {original!r}")
