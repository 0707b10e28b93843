"""Per-module spans and counters for a traced run, from outside vskit.

Every public function and method of the nine vskit modules is replaced
by a timing wrapper for the length of the timed phase.  vskit modules
import each other's functions by name (``from .sphere_geometry import
disc_image``), so a function's wrapper is installed in every module
namespace that holds it, not only where it is defined; methods are
wrapped on their class.

A call whose caller runs in another module crosses a layer boundary: it
opens a span (name, start, end, parent) and its time, less the time of
the boundary calls it makes in turn, is the callee module's self time.
Calls inside one module only feed that module's counters.  Hot leaf
calls (Moebius products, disc transport, model multiplication and the
like) cross boundaries millions of times, so instead of a span each
they add a count and a total time to their parent span.  Spans stay in
memory, in flat arrays, until the run writes them out.
"""

import inspect
from array import array
from time import perf_counter

MODULES = ("moebius", "sphere_geometry", "schottky", "basic_groups",
           "combination", "group_algebra", "cyclic_case", "limitset", "cli")
BENCH = "bench"

# Whole modules whose functions are leaf kernels, and single functions
# called once per element, disc, leaf or record.  Methods are always hot.
HOT_MODULES = {"moebius", "sphere_geometry"}
HOT_FUNCTIONS = {"combination.uncertified_free_product",
                 "combination.format_word", "combination.as_node",
                 "cyclic_case.describe", "cyclic_case.isomorphism_type",
                 "cyclic_case.kernel_genus", "schottky.reduce_word",
                 "schottky.count_reduced_words"}
WRAPPED_DUNDERS = {"__call__", "__mul__", "__pow__"}


def _sample_depth(fn):
    signature = inspect.signature(fn)

    def depth(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["depth"]
    return depth


class Tracer:
    """Spans and counters of one traced run.  Single-threaded only."""

    def __init__(self, package):
        self.package = package
        self.stats = {m: [0, 0.0, 0] for m in MODULES + (BENCH,)}
        self.counters = dict.fromkeys(
            [*COUNTER_UNITS, "combination.placement_attempts"], 0)
        self.names = []
        self.name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.hot = {}                 # (parent span, name id) -> [n, secs]
        self.stack = []
        self._installed = []          # (owner, attribute, original)
        self.start = None

    # -- spans -------------------------------------------------------------

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id, parent, start):
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(start)
        return len(self.span_name) - 1

    def _boundary(self, module, name_id, hot, fn, args, kwargs):
        """Run fn as a call into module from the current frame's module."""
        stack = self.stack
        parent = stack[-1]
        start = perf_counter()
        span = parent[2] if hot else self._open(name_id, parent[2], start)
        frame = [module, 0.0, span]
        stack.append(frame)
        stats = self.stats[module]
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stats[2] += 1
            raise
        finally:
            end = perf_counter()
            stack.pop()
            elapsed = end - start
            parent[1] += elapsed
            stats[0] += 1
            stats[1] += elapsed - frame[1]
            if hot:
                cell = self.hot.get((span, name_id))
                if cell is None:
                    self.hot[(span, name_id)] = [1, elapsed]
                else:
                    cell[0] += 1
                    cell[1] += elapsed
            else:
                self.span_end[span] = end

    def as_benchmark(self, fn, *args):
        """Charge fn's time to the benchmark, e.g. an oracle run inside a
        CLI call, so that it is not counted as the CLI's self time."""
        return self._boundary(BENCH, self._name_id("bench.check"), True,
                              fn, args, {})

    def item(self, fn, *args):
        """One closed-loop item, as a span under the run's root span."""
        return self._boundary(BENCH, self._name_id("item"), False,
                              fn, args, {})

    # -- wrappers ----------------------------------------------------------

    def _wrapper(self, module, qualname, fn, hot, count=None, timer=None,
                 after=None, fail=None):
        counters = self.counters
        stack = self.stack
        boundary = self._boundary
        name_id = self._name_id(qualname)
        plain = timer is None and after is None and fail is None
        # A self-recursive function would get a wrapper frame per level;
        # while it runs, its own module sees the original instead.
        recursive = getattr(fn, "__code__", None) is not None \
            and fn.__name__ in fn.__code__.co_names
        home = fn.__globals__ if recursive else None

        def wrapper(*args, **kwargs):
            if recursive and home.get(fn.__name__) is wrapper:
                home[fn.__name__] = fn
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    home[fn.__name__] = wrapper
            if count is not None:
                counters[count] += 1
            inside = stack[-1][0] == module
            if plain:
                if inside:
                    return fn(*args, **kwargs)
                return boundary(module, name_id, hot, fn, args, kwargs)
            start = perf_counter()
            try:
                if inside:
                    result = fn(*args, **kwargs)
                else:
                    result = boundary(module, name_id, hot, fn, args, kwargs)
            except BaseException:
                if fail is not None:
                    counters[fail] += 1
                raise
            finally:
                if timer is not None:
                    counters[timer] += perf_counter() - start
            if after is not None:
                after(counters, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _extras(self, vs):
        """Counter settings per function: qualified name -> keyword args."""
        def listed(counters, result, args, kwargs):
            counters["combination.elements_listed"] += len(result.triples)
            depth = args[1] if len(args) > 1 else kwargs["depth"]
            if not result.exhausted and result.depth_completed < depth:
                counters["combination.budget_truncations"] += 1

        def enumerated(counters, result, args, kwargs):
            counters["cyclic_case.signatures_enumerated"] += len(result)

        sample_depth = _sample_depth(vs.limitset.sample)

        def sampled(counters, result, args, kwargs):
            counters["limitset.discs"] += len(result.discs)
            counters["limitset.depth_shortfall"] += \
                sample_depth(args, kwargs) - result.depth

        def audited(counters, result, args, kwargs):
            counters["limitset.nesting_violations"] += len(result.violations)

        multiply = {"count": "group_algebra.model_multiplies"}
        return {
            "moebius.MoebiusMap.__init__": {"count": "moebius.maps_built",
                                            "timer": "moebius.init_s"},
            "sphere_geometry.disc_image": {
                "count": "sphere_geometry.disc_images"},
            "sphere_geometry.disc_relation": {
                "count": "sphere_geometry.disc_tests"},
            "sphere_geometry.disc_contains": {
                "count": "sphere_geometry.disc_tests"},
            "schottky.verify_pairing": {"count": "schottky.verify_calls"},
            "basic_groups.make_basic": {
                "count": "basic_groups.make_basic_calls"},
            "combination.PlacementChain.append": {
                "count": "combination.placements"},
            "combination.free_product": {
                "count": "combination.placement_attempts",
                "fail": "combination.placement_retries"},
            "combination.GroupData.elements": {"after": listed},
            "group_algebra.LeafSymbolic.multiply": multiply,
            "group_algebra.FreeProductModel.multiply": multiply,
            "group_algebra.HnnModel.multiply": multiply,
            "group_algebra.FiniteAbelianGroup.add": {
                "count": "group_algebra.abelian_adds"},
            "group_algebra.validate_theta": {
                "timer": "group_algebra.validate_theta_s"},
            "group_algebra.euler_characteristic": {
                "timer": "group_algebra.euler_characteristic_s"},
            "group_algebra.enumerate_elements": {
                "timer": "group_algebra.enumerate_s"},
            "cyclic_case.enumerate_signatures": {
                "timer": "cyclic_case.enumerate_s", "after": enumerated},
            "cyclic_case.build_cyclic": {"timer": "cyclic_case.build_s"},
            "limitset.sample": {"timer": "limitset.sample_s",
                                "after": sampled},
            "limitset.disconnectedness_report": {
                "timer": "limitset.audit_s", "after": audited},
            "limitset.render": {"timer": "limitset.render_s"},
            "cli.load_scene": {"timer": "cli.parse_s"},
            "cli.construct": {"timer": "cli.construct_s"},
        }

    def install(self):
        """Wrap every public function and method of the nine modules."""
        vs = self.package
        modules = {name: getattr(vs, name) for name in MODULES}
        extras = self._extras(vs)
        replace = {}                  # id(original function) -> wrapper
        for name, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and \
                        value.__module__ == module.__name__ and \
                        not inspect.isgeneratorfunction(value):
                    qualname = f"{name}.{attr}"
                    hot = name in HOT_MODULES or qualname in HOT_FUNCTIONS
                    replace[id(value)] = self._wrapper(
                        name, qualname, value, hot, **extras.get(qualname, {}))
                elif inspect.isclass(value) and \
                        value.__module__ == module.__name__:
                    self._wrap_class(name, value, extras)
        for namespace in list(modules.values()) + [vs]:
            for attr, value in list(vars(namespace).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._installed.append((namespace, attr, value))
                    setattr(namespace, attr, wrapper)

    def _wrap_class(self, module_name, cls, extras):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                if not (attr == "__init__" and
                        f"{module_name}.{cls.__name__}.__init__" in extras):
                    continue
            kind = None
            fn = raw
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                fn = raw.__func__
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            qualname = f"{module_name}.{cls.__name__}.{attr}"
            wrapper = self._wrapper(module_name, qualname, fn, True,
                                    **extras.get(qualname, {}))
            self._installed.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- the run -----------------------------------------------------------

    def begin(self):
        self.start = perf_counter()
        root = self._open(self._name_id("run"), -1, self.start)
        self.stack.append([BENCH, 0.0, root])

    def finish(self):
        end = perf_counter()
        root = self.stack.pop()
        self.span_end[root[2]] = end
        wall = end - self.start
        self.stats[BENCH][1] += wall - root[1]
        return wall

    def metrics(self):
        """Per-module metric values, by name."""
        out = {}
        for module in MODULES:
            calls, self_s, errors = self.stats[module]
            out[f"{module}.calls"] = (calls, "count")
            out[f"{module}.self_s"] = (self_s, "s")
            out[f"{module}.errors"] = (errors, "count")
        c = self.counters
        attempts = c["combination.placement_attempts"]
        ratio = ((attempts - c["combination.placement_retries"]) / attempts
                 if attempts else 0.0)
        for key, unit in COUNTER_UNITS.items():
            out[key] = (c[key], unit)
        out["combination.placement_success_ratio"] = (ratio, "ratio")
        return out

    def write_spans(self, path):
        """Spans as tab-separated rows, then the hot-call aggregates."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                handle.write(f"{i}\t{self.span_parent[i]}\t"
                             f"{self.names[self.span_name[i]]}\t"
                             f"{self.span_start[i] - self.start:.6f}\t"
                             f"{self.span_end[i] - self.start:.6f}\n")
            handle.write("# hot calls per parent span\n"
                         "parent\tname\tcalls\ttotal_s\n")
            for (span, name_id), (n, secs) in sorted(self.hot.items()):
                handle.write(f"{span}\t{self.names[name_id]}\t{n}\t"
                             f"{secs:.6f}\n")


# Extra per-module metrics, with their units, in report order.
COUNTER_UNITS = {
    "moebius.maps_built": "count",
    "moebius.init_s": "s",
    "sphere_geometry.disc_images": "count",
    "sphere_geometry.disc_tests": "count",
    "schottky.verify_calls": "count",
    "basic_groups.make_basic_calls": "count",
    "combination.placements": "count",
    "combination.placement_retries": "count",
    "combination.placement_success_ratio": "ratio",
    "combination.elements_listed": "count",
    "combination.budget_truncations": "count",
    "group_algebra.model_multiplies": "count",
    "group_algebra.abelian_adds": "count",
    "group_algebra.validate_theta_s": "s",
    "group_algebra.euler_characteristic_s": "s",
    "group_algebra.enumerate_s": "s",
    "cyclic_case.signatures_enumerated": "count",
    "cyclic_case.enumerate_s": "s",
    "cyclic_case.build_s": "s",
    "limitset.discs": "count",
    "limitset.depth_shortfall": "count",
    "limitset.nesting_violations": "count",
    "limitset.sample_s": "s",
    "limitset.audit_s": "s",
    "limitset.render_s": "s",
    "cli.parse_s": "s",
    "cli.construct_s": "s",
    "cli.output_bytes": "bytes",
}
