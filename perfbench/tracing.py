"""Spans around askzeta's public functions, and the per-layer metrics.

``Tracer.install`` wraps the public functions of each askzeta module (and the
public methods of ``MRep`` and ``RationalFunction``) in place, in the freshly
imported modules of one round. A span is [name, start_ns, end_ns, parent,
size]; spans stay in memory and are written once, at the end of the run.
A target missing from the program, or a size that cannot be read from a
call's arguments, is kept in ``Tracer.problems``: a renamed or re-signed
function must not read as a layer that got faster.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

# (module, attribute, span name); "Class.method" patches the class
TARGETS = (
    ("bulk", "census_of_stack", "bulk.census"),
    ("bulk", "batch_kernel_exponents", "bulk.kernel_exponents"),
    ("bulk", "batch_smith_exponents", "bulk.smith"),
    ("bulk", "iter_vector_chunks", "bulk.chunk"),
    ("ring", "smith_exponents", "ring.smith_exponents"),
    ("ring", "kernel_size", "ring.kernel_size"),
    ("ring", "image_size", "ring.image_size"),
    ("ask", "ask_m", "ask.ask_m"),
    ("ask", "kernel_census", "ask.kernel_census"),
    ("ask", "zeta_coeffs", "ask.zeta_coeffs"),
    ("ask", "ask_from_census", "ask.accum"),
    ("mrep", "MRep.dual", "mrep.dual"),
    ("mrep", "MRep.direct_sum", "mrep.direct_sum"),
    ("mrep", "MRep.scalar_multiply", "mrep.scalar_multiply"),
    ("mrep", "MRep.alternating_hull", "mrep.alternating_hull"),
    ("mrep", "MRep.reduced_array", "mrep.reduced_array"),
    ("mrep", "collapse", "mrep.collapse"),
    ("mrep", "collapsed_power", "mrep.collapsed_power"),
    ("mrep", "constant_rank_check", "mrep.constant_rank_check"),
    ("mrep", "kminimality_check", "mrep.kminimality_check"),
    ("mrep", "verify_homotopy", "mrep.verify_homotopy"),
    ("groups", "build_group", "groups.build_group"),
    ("groups", "lazard_group", "groups.lazard_group"),
    ("groups", "class_number", "groups.class_number"),
    ("zeta", "closed_form", "zeta.closed_form"),
    ("zeta", "RationalFunction.expand", "zeta.expand"),
    ("catalog", "make", "catalog.make"),
    ("polynom", "count_hypersurface_points", "polynom.points"),
    ("polynom", "det_linear_matrix", "polynom.det"),
    ("verify", "run_criterion", "verify.run_criterion"),
    ("verify", "direct_asks", "verify.direct_asks"),
    ("corpus", "seeded_corpus", "corpus.seeded"),
    ("cli", "main", "cli.main"),
)

GENERATORS = {"bulk.chunk"}


# sizes recorded with a span, from the bound call arguments
def _census_size(coeffs, p, n, **_):
    return len(coeffs) * (p**n) ** len(coeffs[0])


def _nominal(rep, ring, **_):
    return ring.size**rep.l


def _zeta_nominal(rep, p, levels, **_):
    return sum(p ** (n * rep.l) for n in range(levels + 1))


def _class_size(spec, method, **_):
    return (spec.order, spec.order**2 if method == "centralizer" else 0)


SIZES = {
    "bulk.census": _census_size,
    "bulk.smith": lambda mats, **_: len(mats),
    "ask.ask_m": _nominal,
    "ask.kernel_census": _nominal,
    "ask.zeta_coeffs": _zeta_nominal,
    "groups.class_number": _class_size,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.problems: dict[str, str] = {}  # span name -> its first problem

    def _open(self, name, size):
        spans = self.spans
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, size]
        self.stack.append(len(spans))
        spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name, fn):
        size = SIZES.get(name)
        sig = inspect.signature(fn) if size else None
        tracer = self

        if name in GENERATORS:

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    rec = tracer._open(name, 0)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(rec)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = 0
            if size is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    n = size(**bound.arguments)
                except Exception as err:  # the call still runs; the run is marked not correct
                    tracer.problems.setdefault(name, f"size from the arguments raised {err!r}")
            rec = tracer._open(name, n)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    def install(self) -> None:
        """Wrap every target, importing the askzeta modules the workload did not."""
        found = {}
        for modname in dict.fromkeys(t[0] for t in TARGETS):
            try:
                found[modname] = importlib.import_module(f"askzeta.{modname}")
            except ImportError as err:
                found[modname] = None
                self.problems[f"askzeta.{modname}"] = f"import failed: {err!r}"
        modules = {k: m for k, m in sys.modules.items() if k == "askzeta" or k.startswith("askzeta.")}
        for modname, attr, name in TARGETS:
            mod = found[modname]
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.problems[name] = f"askzeta.{modname}.{attr} not found"
                    continue
                setattr(cls, meth, self.wrap(name, fn))
            else:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.problems[name] = f"askzeta.{modname}.{attr} not found"
                    continue
                wrapper = self.wrap(name, fn)
                # rebind every module-level alias, e.g. names copied by "from . import"
                for other in modules.values():
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)


# ------------------------------------------------------------------ metrics


class SpanTable:
    """Durations, self times and layer totals of one pass's spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [(s[2] - s[1]) / 1e9 for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def select(self, names):
        return [i for i, s in enumerate(self.spans) if s[0] in names]

    def outermost(self, names):
        """Spans in the group with no ancestor in the group (no double counting)."""
        out = []
        for i in self.select(names):
            j = self.spans[i][3]
            while j >= 0 and self.spans[j][0] not in names:
                j = self.spans[j][3]
            if j < 0:
                out.append(i)
        return out

    def count(self, *names):
        return len(self.outermost(set(names)))

    def total(self, *names):
        return sum(self.dur[i] for i in self.outermost(set(names)))

    def self_total(self, name):
        return sum(self.self_time[i] for i in self.select({name}))

    def size(self, name, part=None):
        sizes = [self.spans[i][4] for i in self.select({name})]
        return sum(sizes) if part is None else sum(s[part] for s in sizes if s)


BULK = ("bulk.census", "bulk.kernel_exponents", "bulk.smith", "bulk.chunk")
ENUMERATIONS = ("ask.ask_m", "ask.kernel_census", "ask.zeta_coeffs", "bulk.census")


def layer_metrics(cold, warm, untraced_s, traced_s, criteria) -> dict:
    """Per-layer metrics from the cold traced pass; the warm pass gives the set-up excess."""
    t = SpanTable(cold)
    w = SpanTable(warm)
    nominal = sum(t.spans[i][4] for i in t.outermost(set(ENUMERATIONS)))
    smith_n = t.size("bulk.smith")
    smith_s = t.total("bulk.smith")
    ask_durations = [t.dur[i] for i in t.select({"ask.ask_m"})]
    m = {
        "bulk.census.calls": (t.count("bulk.census"), "count"),
        "bulk.census.matrices": (t.size("bulk.census"), "count"),
        "bulk.census.self_s": (t.self_total("bulk.census"), "s"),
        "bulk.chunks.s": (t.total("bulk.chunk"), "s"),
        "bulk.smith.matrices": (smith_n, "count"),
        "bulk.smith.s": (smith_s, "s"),
        "bulk.smith.mmat_s": (smith_s / (smith_n / 1e6) if smith_n else 0.0, "s/Mmat"),
        "bulk.nominal.vectors": (nominal, "count"),
        "bulk.evals_per_nominal": (smith_n / nominal if nominal else 0.0, "ratio"),
        "bulk.cold_excess_s": (t.total(*BULK) - w.total(*BULK), "s"),
        "ring.smith.calls": (t.count("ring.smith_exponents", "ring.kernel_size", "ring.image_size"), "count"),
        "ring.smith.s": (t.total("ring.smith_exponents", "ring.kernel_size", "ring.image_size"), "s"),
        "ask.ask_m.calls": (len(ask_durations), "count"),
        "ask.ask_m.p50_us": (statistics.median(ask_durations) * 1e6 if ask_durations else 0.0, "us"),
        "ask.ask_m.self_s": (t.self_total("ask.ask_m"), "s"),
        "ask.accum.s": (t.total("ask.accum"), "s"),
        "ask.zeta.calls": (len(t.select({"ask.zeta_coeffs"})), "count"),
        "ask.census.calls": (len(t.select({"ask.kernel_census"})), "count"),
        "mrep.build.s": (
            t.total("mrep.dual", "mrep.direct_sum", "mrep.scalar_multiply", "mrep.alternating_hull",
                    "mrep.collapsed_power", "mrep.collapse"),
            "s",
        ),
        "mrep.reduced_array.s": (t.total("mrep.reduced_array"), "s"),
        "mrep.scans.s": (t.total("mrep.constant_rank_check", "mrep.kminimality_check", "mrep.verify_homotopy"), "s"),
        "groups.class_number.calls": (len(t.select({"groups.class_number"})), "count"),
        "groups.class_number.elements": (t.size("groups.class_number", 0), "count"),
        "groups.centralizer.pairs": (t.size("groups.class_number", 1), "count"),
        "groups.class_number.s": (t.total("groups.class_number"), "s"),
        "groups.build.s": (t.total("groups.build_group", "groups.lazard_group"), "s"),
        "zeta.closed_form.s": (t.total("zeta.closed_form"), "s"),
        "zeta.expand.s": (t.total("zeta.expand"), "s"),
        "catalog.make.s": (t.total("catalog.make"), "s"),
        "polynom.points.s": (t.total("polynom.points"), "s"),
        "polynom.det.s": (t.total("polynom.det"), "s"),
    }
    for k in range(1, 15):
        m[f"verify.c{k}_s"] = (criteria.get(k, (0.0, 0))[0], "s")
    m["verify.checks"] = (sum(c for _, c in criteria.values()), "count")
    m["corpus.seeded.s"] = (t.total("corpus.seeded"), "s")
    m["cli.main.self_s"] = (t.self_total("cli.main"), "s")
    m["trace.spans"] = (len(t.spans), "count")
    m["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
    return m


def write_spans(path, passes: dict) -> None:
    """One JSON line per span: pass, id, name, start_ns, end_ns, parent id."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, spans in passes.items():
            fh.writelines(
                json.dumps([label, i, s[0], s[1], s[2], s[3]]) + "\n" for i, s in enumerate(spans)
            )
