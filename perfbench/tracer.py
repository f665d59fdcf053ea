"""Layer spans for a traced run, patched in from outside the program.

Each traced callable is replaced where its callers look it up: on its
class for methods, and for module-level functions on every ``chowring``
module that holds a reference to it (``f4pipeline`` binds
``get_chow_ring`` at import time, ``schubert`` binds ``_raw_root_product``,
and so on).  A span records (name, start, end, parent, phase); a layer's
self time is its spans' durations minus the time their child spans cover.

Work counters are taken at the same boundaries from arguments and results
only.  A miss is a key the wrapper has not seen before in this process, so
counts repeat exactly between two runs with the same inputs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

LAYERS = ("rootsystem", "weyl", "hasse", "poly", "schubert", "correspondence",
          "f4pipeline", "linalg")


def _layer(span: str) -> str:
    return span.partition(".")[0]


def _first_seen(tracer, key) -> bool:
    if key in tracer.seen:
        return False
    tracer.seen.add(key)
    return True


def _count_roots(t, args, result):
    t.count("rootsystem.positive_roots", len(result.positive_roots))


def _count_enumeration(t, args, result):
    group = args[0]
    if _first_seen(t, ("enumerate", id(group))):
        t.count("weyl.elements", group.order)


def _count_reps(t, args, result):
    t.count("weyl.coset_reps", len(result))


def _count_edges(t, args, result):
    t.count("hasse.edges", len(result.edges))


def _count_export(t, args, result):
    t.count("hasse.export_bytes", len(result))


def _count_lift(t, args, result):
    engine, idx = args[0], args[1]
    if _first_seen(t, ("lift", id(engine), idx)):
        t.count("poly.lifts")
        t.count("poly.lift_terms", len(result))


def _count_cmap(t, args, result):
    t.count("poly.cmap_input_terms", len(args[1]))


def _count_engine_product(t, args, result):
    engine, wa, wb = args[0], args[1], args[2]
    key = ("engine", id(engine)) + tuple(sorted((wa.images, wb.images)))
    if _first_seen(t, key):
        t.count("schubert.engine_products")


def _count_root_product(t, args, result):
    if _first_seen(t, ("d", id(args[0]))):
        t.count("poly.d_terms", len(result))


def _pair_key(ring, a, b):
    ka, kb = (a.codim, a.rep.images), (b.codim, b.rep.images)
    return (id(ring),) + ((ka, kb) if ka <= kb else (kb, ka))


def _count_pair_product(t, args, result):
    if _first_seen(t, ("pp",) + _pair_key(*args[:3])):
        t.count("schubert.pair_product_misses")
        t.count("schubert.structure_constants", len(result.terms))


def _count_pair_degree(t, args, result):
    if _first_seen(t, ("pd",) + _pair_key(*args[:3])):
        t.count("schubert.pair_degree_misses")


def _count_compose(t, args, result):
    beta, alpha = args[0], args[1]
    t.count("correspondence.compose_term_pairs", len(alpha.terms) * len(beta.terms))


def _count_checks(t, args, result):
    t.count("f4pipeline.checks_passed", sum(1 for c in result.checks if c.passed))


def _skip_if_enumerated(args) -> bool:
    return getattr(args[0], "_elements", None) is not None


# (module, attribute path, span name, counter hook).  The layer is the
# span name's prefix.  Hot element-level helpers (mult_simple_right,
# act_root, reduced_word, coroot_pairing) stay unwrapped: a span per call
# would cost more than the work it measures.
TARGETS = (
    ("rootsystem", "build_root_system", "rootsystem.build", _count_roots),
    ("rootsystem", "root_system", "rootsystem.named", None),
    ("rootsystem", "load_root_system", "rootsystem.load", None),
    ("weyl", "WeylGroup._ensure", "weyl.enumerate", _count_enumeration),
    ("weyl", "WeylGroup.minimal_coset_reps", "weyl.cosets", _count_reps),
    ("weyl", "WeylGroup.maximal_coset_reps", "weyl.cosets", _count_reps),
    ("weyl", "multiply", "weyl.multiply", None),
    ("weyl", "get_weyl_group", "weyl.get_group", None),
    ("weyl", "longest_element", "weyl.longest", None),
    ("weyl", "reflection", "weyl.reflection", None),
    ("weyl", "inverse", "weyl.inverse", None),
    ("weyl", "serialize", "weyl.serialize", None),
    ("weyl", "parse_element", "weyl.parse", None),
    ("hasse", "build_hasse", "hasse.build", _count_edges),
    ("hasse", "build_pieri_diagram", "hasse.build", _count_edges),
    ("hasse", "embed_diagram", "hasse.build", None),
    ("hasse", "export_dot", "hasse.export", _count_export),
    ("hasse", "export_json", "hasse.export", _count_export),
    ("schubert", "_GiambelliEngine.delta_d", "poly.lift", _count_lift),
    ("schubert", "_GiambelliEngine.c_raw", "poly.cmap", _count_cmap),
    ("schubert", "_GiambelliEngine.product_classes", "poly.mul",
     _count_engine_product),
    ("poly", "_raw_root_product", "poly.root_product", _count_root_product),
    ("poly", "weyl_act", "poly.weyl_act", None),
    ("poly", "divided_difference", "poly.divided_difference", None),
    ("poly", "divided_difference_word", "poly.divided_difference", None),
    ("poly", "positive_root_product", "poly.root_product", None),
    ("poly", "parse_polynomial", "poly.text", None),
    ("poly", "format_polynomial", "poly.text", None),
    ("poly", "RationalPolynomial.__mul__", "poly.rational_mul", None),
    ("schubert", "get_chow_ring", "schubert.get_ring", None),
    ("schubert", "ChowRing.__init__", "schubert.ring_build", None),
    ("schubert", "ChowRing.pair_product", "schubert.pair_product",
     _count_pair_product),
    ("schubert", "ChowRing.pair_degree", "schubert.pair_degree",
     _count_pair_degree),
    ("schubert", "ChowRing.chevalley_mult", "schubert.chevalley", None),
    ("schubert", "ChowRing.multiply", "schubert.multiply", None),
    ("schubert", "ChowRing.power", "schubert.multiply", None),
    ("schubert", "ChowRing.duality_pair", "schubert.duality", None),
    ("schubert", "ChowRing.dual_class", "schubert.duality", None),
    ("schubert", "ChowRing.giambelli_lift", "schubert.giambelli_lift", None),
    ("schubert", "ChowRing.c_map", "schubert.c_map", None),
    ("schubert", "hyperplane_table", "schubert.table", None),
    ("schubert", "format_table_text", "schubert.table", None),
    ("correspondence", "compose", "correspondence.compose", _count_compose),
    ("correspondence", "intersect", "correspondence.intersect", None),
    ("correspondence", "realize", "correspondence.realize", None),
    ("correspondence", "transpose", "correspondence.transpose", None),
    ("correspondence", "diagonal", "correspondence.diagonal", None),
    ("correspondence", "mod_reduce", "correspondence.mod_reduce", None),
    ("correspondence", "congruent", "correspondence.congruent", None),
    ("correspondence", "is_idempotent", "correspondence.is_idempotent", None),
    ("correspondence", "are_orthogonal", "correspondence.are_orthogonal", None),
    ("correspondence", "from_jsonable", "correspondence.json", None),
    ("correspondence", "to_jsonable", "correspondence.json", None),
    ("correspondence", "Correspondence.from_pairs", "correspondence.build", None),
    ("correspondence", "Correspondence.from_product", "correspondence.build", None),
    ("correspondence", "Correspondence.__add__", "correspondence.arith", None),
    ("correspondence", "Correspondence.__sub__", "correspondence.arith", None),
    ("correspondence", "Correspondence.__mul__", "correspondence.arith", None),
    ("f4pipeline", "get_f4_varieties", "f4pipeline.labels", None),
    ("f4pipeline", "solve_labels", "f4pipeline.labels", None),
    ("f4pipeline", "run_f4_verification", "f4pipeline.run", _count_checks),
    ("f4pipeline", "load_table", "f4pipeline.fixtures", None),
    ("f4pipeline", "fixture_idempotents", "f4pipeline.fixtures", None),
    ("f4pipeline", "fixture_congruence", "f4pipeline.fixtures", None),
    ("f4pipeline", "hyperplane_power", "f4pipeline.cycles", None),
    ("f4pipeline", "build_r", "f4pipeline.cycles", None),
    ("f4pipeline", "r_squared", "f4pipeline.cycles", None),
    ("f4pipeline", "build_rho", "f4pipeline.cycles", None),
    ("f4pipeline", "compute_idempotents", "f4pipeline.cycles", None),
    ("f4pipeline", "build_J", "f4pipeline.cycles", None),
    ("linalg", "rank", "linalg.rank", None),
    ("linalg", "hermite_row_basis", "linalg.hermite", None),
)

# Every check_* function of f4pipeline gets a span of its own.
CHECK_PREFIX = "check_"


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list = []          # (name, start, end, parent, phase)
        self.stack: list = []          # [span index, time covered by children]
        self.self_time = defaultdict(float)    # (phase, span name) -> s
        self.calls = defaultdict(int)          # (phase, span name) -> n
        self.counters = defaultdict(int)       # (phase, counter) -> n
        self.seen: set = set()
        self.hook_s = 0.0
        self.phase = "setup"
        self.active = True
        self.missing: list[str] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[(self.phase, name)] += n

    def wrap(self, fn, name: str, hook=None, skip=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                phase = tracer.phase
                tracer.spans[sid] = (name, start, end, parent, phase)
                tracer.self_time[(phase, name)] += duration - frame[1]
                tracer.calls[(phase, name)] += 1
            if hook is not None:
                tracer.active = False
                start = tracer.clock()
                try:
                    hook(tracer, args, result)
                finally:
                    tracer.hook_s += tracer.clock() - start
                    tracer.active = True
            return result

        return traced

    def install(self) -> None:
        """Patch every target; a target the program no longer has is listed
        in ``missing`` instead of failing the run."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "chowring" or name.startswith("chowring.")}
        targets = list(TARGETS)
        f4 = mods.get("chowring.f4pipeline")
        if f4 is not None:
            targets += [("f4pipeline", attr, "f4pipeline.checks", None)
                        for attr in sorted(vars(f4))
                        if attr.startswith(CHECK_PREFIX) and callable(getattr(f4, attr))]
        for modname, path, span, hook in targets:
            module = mods.get(f"chowring.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr) \
                if owner is not None else None
            is_classmethod = isinstance(original, classmethod)
            if is_classmethod:
                original = original.__func__
            if original is None or not callable(original):
                self.missing.append(f"{modname}.{path}")
                continue
            skip = _skip_if_enumerated if span == "weyl.enumerate" else None
            wrapped = self.wrap(original, span, hook, skip)
            if isinstance(owner, type):
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    # -- summaries -----------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(v for (_, n), v in self.self_time.items() if n in names)

    def layer_self_s(self, layer: str, phase: str | None = None) -> float:
        return sum(v for (p, n), v in self.self_time.items()
                   if _layer(n) == layer and (phase is None or p == phase))

    def n_calls(self, *names: str) -> int:
        return sum(v for (_, n), v in self.calls.items() if n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(v for (_, n), v in self.calls.items() if _layer(n) == layer)

    def counter(self, name: str, phase: str | None = None) -> int:
        return sum(v for (p, n), v in self.counters.items()
                   if n == name and (phase is None or p == phase))

    def root_span_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def by_name(self) -> list[tuple[str, int, float]]:
        """(span name, calls, self seconds), largest self time first."""
        names = {n for _, n in self.calls}
        rows = [(n, self.n_calls(n), self.self_s(n)) for n in names]
        return sorted(rows, key=lambda r: -r[2])


PROBE_CALLS, PROBE_REPEATS = 20000, 5


def span_cost_s() -> float:
    """Time one span adds to a call: a no-op called through the wrapper of
    a fresh tracer minus the bare no-op, per call, best of PROBE_REPEATS."""
    def noop():
        return None

    clock = time.perf_counter
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        wrapped = Tracer().wrap(noop, "probe")
        t0 = clock()
        for _ in range(PROBE_CALLS):
            noop()
        t1 = clock()
        for _ in range(PROBE_CALLS):
            wrapped()
        t2 = clock()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / PROBE_CALLS


def _ratio(hits: int, calls: int) -> float:
    return hits / calls if calls else 0.0


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced process (times in s, rest counts)."""
    pp_calls = t.n_calls("schubert.pair_product")
    pd_calls = t.n_calls("schubert.pair_degree")
    corr_named = ("correspondence.compose", "correspondence.intersect",
                  "correspondence.realize")
    m = {
        "rootsystem.build_s": t.layer_self_s("rootsystem"),
        "rootsystem.positive_roots": t.counter("rootsystem.positive_roots"),
        "weyl.enumerate_s": t.self_s("weyl.enumerate"),
        "weyl.elements": t.counter("weyl.elements"),
        "weyl.cosets_s": t.self_s("weyl.cosets"),
        "weyl.coset_reps": t.counter("weyl.coset_reps"),
        "weyl.multiply_calls": t.n_calls("weyl.multiply"),
        "weyl.multiply_s": t.self_s("weyl.multiply"),
        "hasse.build_s": t.self_s("hasse.build"),
        "hasse.edges": t.counter("hasse.edges"),
        "hasse.export_s": t.self_s("hasse.export"),
        "hasse.export_bytes": t.counter("hasse.export_bytes"),
        "poly.lift_s": t.self_s("poly.lift"),
        "poly.lifts": t.counter("poly.lifts"),
        "poly.lift_terms": t.counter("poly.lift_terms"),
        "poly.cmap_s": t.self_s("poly.cmap"),
        "poly.cmap_calls": t.n_calls("poly.cmap"),
        "poly.cmap_input_terms": t.counter("poly.cmap_input_terms"),
        "poly.mul_s": t.self_s("poly.mul"),
        "poly.d_terms": t.counter("poly.d_terms"),
        "schubert.ring_build_s": t.self_s("schubert.ring_build", "schubert.get_ring"),
        "schubert.pair_product_calls": pp_calls,
        "schubert.pair_product_misses": t.counter("schubert.pair_product_misses"),
        "schubert.pair_product_hit_ratio": _ratio(
            pp_calls - t.counter("schubert.pair_product_misses"), pp_calls),
        "schubert.pair_product_self_s": t.self_s("schubert.pair_product"),
        "schubert.engine_products": t.counter("schubert.engine_products"),
        "schubert.pair_degree_calls": pd_calls,
        "schubert.pair_degree_hit_ratio": _ratio(
            pd_calls - t.counter("schubert.pair_degree_misses"), pd_calls),
        "schubert.chevalley_calls": t.n_calls("schubert.chevalley"),
        "schubert.chevalley_s": t.self_s("schubert.chevalley"),
        "schubert.structure_constants": t.counter("schubert.structure_constants"),
        "schubert.solve_pair_product_misses":
            t.counter("schubert.pair_product_misses", phase="solve"),
        "schubert.solve_engine_products":
            t.counter("schubert.engine_products", phase="solve"),
        "correspondence.compose_calls": t.n_calls("correspondence.compose"),
        "correspondence.compose_term_pairs":
            t.counter("correspondence.compose_term_pairs"),
        "correspondence.compose_s": t.self_s("correspondence.compose"),
        "correspondence.intersect_calls": t.n_calls("correspondence.intersect"),
        "correspondence.intersect_s": t.self_s("correspondence.intersect"),
        "correspondence.realize_s": t.self_s("correspondence.realize"),
        "correspondence.other_s": t.layer_self_s("correspondence") - t.self_s(*corr_named),
        "f4pipeline.labels_s": t.self_s("f4pipeline.labels"),
        "f4pipeline.self_s": t.layer_self_s("f4pipeline"),
        "f4pipeline.checks_passed": t.counter("f4pipeline.checks_passed"),
        "linalg.calls": t.layer_calls("linalg"),
        "linalg.s": t.layer_self_s("linalg"),
    }
    for layer in LAYERS:
        m[f"{layer}.calls_total"] = t.layer_calls(layer)
        m[f"{layer}.self_total_s"] = t.layer_self_s(layer)
        m[f"{layer}.solve_self_s"] = t.layer_self_s(layer, phase="solve")
    m["trace.spans"] = len(t.spans)
    # Measured in this process, not as traced minus untraced wall time:
    # the machine's speed drifts by more than the tracer costs.
    m["trace.overhead_s"] = len(t.spans) * span_cost_s() + t.hook_s
    m["trace.idle_layers"] = sum(1 for layer in LAYERS if not t.layer_calls(layer))
    return m
