"""Layer tracer for the benchmark's traced run.

The tracer wraps public functions of the `liepairs` modules from the
outside.  Each target is rebound in every `liepairs` module namespace
that holds it, so call sites that imported it by name (for example
`centralizer.bracket`, a `from .chevalley import`) are traced too.

Span targets record one span (name, parent, start, end) per call in
flat in-memory arrays; self time is derived at the end as span time
minus the time of the child spans.  Count targets (hot methods such as
`Span.add` and `QI.__init__`) record calls only, so their time stays in
the calling span.  Boundary counters are computed from the arguments
and results at the wrapped boundary; the time they take is charged to
the tracer's bookkeeping, not to any span's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "liepairs"

# module -> traced functions; "Class.method" names a method
SPANS = {
    "linalg": ("rref", "nullspace", "solve", "det", "min_poly",
               "pencil_locus"),
    "chevalley": ("bracket", "centralizer_in", "derived_subalgebra",
                  "is_ad_semisimple", "build_algebra"),
    "centralizer": ("subpair", "split_ideals", "ideal_closure",
                    "span_intersection", "bracket_span",
                    "identify_semisimple_type", "toral_rank",
                    "nonregular_locus", "regularity_check"),
    "matrixmodel": ("normal_triple_for", "characteristic_from_triple",
                    "even_sheet_witness", "jordan_decompose",
                    "real_restricted_root_space", "restricted_root_space",
                    "minimal_orbit_not_distinguished",
                    "MatrixPair.centralizer_in", "mat_mul", "commutator",
                    "lemma51_check", "dim_identity_check"),
    "parabolic": ("proposition_checks", "enumerate_catalog",
                  "build_parabolic"),
    "cascade": ("full_cascade", "verify_gamma_partition"),
    "orbits": ("enumerate_dyo", "characteristic"),
    "rootsystem": ("build_root_system",),
    "report": ("pairs_report", "cascade_report", "orbits_report",
               "centralizer_report", "model_report"),
    "cli": ("run",),
}

# metric name -> (module, method); calls only, no span
COUNTS = {
    "linalg.Span.add": ("linalg", "Span.add"),
    "linalg.Span.contains": ("linalg", "Span.contains"),
    "gaussian.QI.created": ("gaussian", "QI.__init__"),
}

# modules timed by span self time; `gaussian` is only counted (QI.created):
# QI arithmetic is too fine-grained to span, so its time stays in the
# calling span
MODULES = tuple(SPANS)

JOBS = "jobs"   # module name of the benchmark's own per-job spans


# ---------------------------------------------------------------------------
# boundary counters


def _matrix_cells(mat, ncols=None):
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    return len(mat) * ncols


def _bits(x):
    re = getattr(x, "re", None)
    if re is not None:      # Gaussian rational
        return max(_bits(re), _bits(x.im))
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _max_bits(rows):
    return max((_bits(x) for row in rows for x in row if x), default=0)


def _cells_hook(stats):
    def hook(args, kwargs, result):
        stats["cells"] += _matrix_cells(args[0])
    return hook


def _nullspace_hook(stats):
    def hook(args, kwargs, result):
        ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
        stats["cells"] += _matrix_cells(args[0], ncols)
    return hook


def _rref_hook(stats):
    def hook(args, kwargs, result):
        stats["cells"] += _matrix_cells(args[0])
        stats["max_bits"] = max(stats["max_bits"], _max_bits(result[0]))
    return hook


def _min_poly_hook(stats):
    def hook(args, kwargs, result):
        stats["max_degree"] = max(stats["max_degree"], len(result) - 1)
    return hook


HOOKS = {
    "linalg.rref": (_rref_hook, ("cells", "max_bits")),
    "linalg.nullspace": (_nullspace_hook, ("cells",)),
    "linalg.solve": (_cells_hook, ("cells",)),
    "linalg.det": (_cells_hook, ("cells",)),
    "linalg.min_poly": (_min_poly_hook, ("max_degree",)),
}


# ---------------------------------------------------------------------------
# the tracer


class Tracer:
    """Wraps the targets on `install()` and restores them on `uninstall()`."""

    def __init__(self):
        self.names = []             # span name table
        self._name_ids = {}
        self.name_of = array("i")   # per span: index into names
        self.parent = array("i")    # per span: index of parent span, or -1
        self.start = array("q")     # per span: perf_counter_ns at entry
        self.end = array("q")       # per span: perf_counter_ns at exit
        self.stack = []
        self.bookkeeping_ns = {}    # span index -> counter time inside it
        self.stats = {}             # span name -> boundary counters
        self.counts = {}            # count metric -> [calls, true results]
        self._undo = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, key):
        """`fn` recording one span named `key` per call, plus the boundary
        counters HOOKS names for `key`."""
        nid = self._name_id(key)
        make_hook, fields = HOOKS.get(key, (None, ()))
        stats = self.stats.setdefault(key, dict.fromkeys(fields, 0))
        hook = make_hook(stats) if make_hook else None
        name_of, parent, start, end = (self.name_of, self.parent, self.start,
                                       self.end)
        stack, bookkeeping = self.stack, self.bookkeeping_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                t0 = clock()
                hook(args, kwargs, result)
                if stack:
                    bookkeeping[stack[-1]] = (bookkeeping.get(stack[-1], 0)
                                              + clock() - t0)
            return result

        return traced

    def _count_wrapper(self, fn, key):
        cell = self.counts[key] = [0, 0]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            cell[0] += 1
            if result:
                cell[1] += 1
            return result

        return counted

    def install(self, extra=()):
        """Rebind every target in the `liepairs` modules and in the
        modules `extra`; raises if a target no longer exists."""
        mods = {name: m for name, m in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        targets = [(f"{m}.{q}", m, q, self.wrap)
                   for m, quals in SPANS.items() for q in quals]
        targets += [(key, m, q, self._count_wrapper)
                    for key, (m, q) in COUNTS.items()]
        for key, modname, qual, make in targets:
            module = mods.get(f"{PACKAGE}.{modname}")
            if module is None:
                raise LookupError(f"module {PACKAGE}.{modname} not loaded")
            *path, attr = qual.split(".")
            holder = module
            for part in path:
                holder = getattr(holder, part)
            if attr not in vars(holder):
                raise LookupError(f"{PACKAGE}.{modname}.{qual} is gone; "
                                  "update the tracer's targets")
            fn = vars(holder)[attr]
            wrapper = make(fn, key)
            if path:
                self._rebind(holder, attr, fn, wrapper)
                continue
            for m in [*mods.values(), *extra]:
                for name in [n for n, v in vars(m).items() if v is fn]:
                    self._rebind(m, name, fn, wrapper)

    def _rebind(self, holder, name, fn, wrapper):
        setattr(holder, name, wrapper)
        self._undo.append((holder, name, fn))

    def uninstall(self):
        for holder, name, fn in reversed(self._undo):
            setattr(holder, name, fn)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self ns), plus the bookkeeping ns and
        the summed duration of the root spans."""
        if self.stack or 0 in self.end:
            raise RuntimeError("trace has unclosed spans")
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        book = self.bookkeeping_ns
        for i, nid in enumerate(self.name_of):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i] - book.get(i, 0)
        root_ns = sum(d for d, p in zip(dur, self.parent) if p < 0)
        per_name = {name: (calls[i], self_ns[i])
                    for i, name in enumerate(self.names)}
        return per_name, sum(book.values()), root_ns

    def write(self, path: Path, header: dict):
        """Spans as four arrays in `<path>.bin` (native byte order, named
        in the header) after a JSON header in `<path>.json`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.name_of, self.parent, self.start, self.end)
        header = dict(header, names=self.names, spans=len(self.start),
                      byteorder=sys.byteorder,
                      layout=[[n, a.typecode, a.itemsize] for n, a in
                              zip(("name", "parent", "start_ns", "end_ns"),
                                  arrays)])
        with open(path.with_suffix(".bin"), "wb") as f:
            for a in arrays:
                a.tofile(f)
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
