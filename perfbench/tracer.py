"""Span tracing of the program's layers, installed from outside the program.

`Tracer.install()` replaces each traced function, wherever a module of the
package holds a reference to it, by a wrapper that records one span (name,
start, end, parent) per call, plus a few work counters.  `uninstall()` puts
the originals back, so untraced rounds run the unmodified program.  Spans
are kept in flat arrays in memory and written out once, at the end of a run.

A layer that a later version of the program removes or renames is skipped;
its metrics then read 0.  `stats()` keys each span name's statistics so that
`<span name>.<statistic>` is the metric's name in BENCHMARK.json.
"""

from array import array
import sys
import time

PACKAGE = "sphere_sumrules"

# (span name, module, attribute) of every traced public function.
FUNCTIONS = (
    ("quadrature.quadrature", "quadrature", "quadrature"),
    ("harmonics.zonal_band_matrix", "harmonics", "zonal_band_matrix"),
    ("harmonics.coupling_W", "harmonics", "coupling_W"),
    ("harmonics.pair_strength", "harmonics", "pair_strength"),
    ("tails.tail_sum", "tails", "tail_sum"),
    ("tails.accelerated_sum", "tails", "accelerated_sum"),
    ("sumrules.sum_rule", "sumrules", "sum_rule"),
    ("sumrules.sum_rule_shifted", "sumrules", "sum_rule_shifted"),
    ("sumrules.epsilon_recursive", "sumrules", "epsilon_recursive"),
    ("rayleigh_ritz.assemble", "rayleigh_ritz", "assemble"),
    ("rayleigh_ritz.solve_spectrum", "rayleigh_ritz", "solve_spectrum"),
    ("weyl.weyl_model", "weyl", "weyl_model"),
    ("weyl.hybrid_sum_rule", "weyl", "hybrid_sum_rule"),
    ("cli.main", "cli", "main"),
)
CONSTRUCTORS = ("tilted", "zonal", "from_coeffs")
ROOT = "op"
EIGH = "rayleigh_ritz.eigh"
DENSITY = "density.DensitySpec"


def _rows(result, args, kwargs):
    """Matrix rows built: the band's degree range, or the problem's blocks."""
    if len(args) >= 5:
        return args[4] - args[3] + 1
    blocks = getattr(result, "blocks", ())
    return sum(len(getattr(b, "stiffness", ())) for b in blocks)


def _terms(result, args, kwargs):
    return getattr(result, "size", 1)


def _nonzero(result, args, kwargs):
    return 1 if result else 0


def _rule(result, args, kwargs):
    return (float(args[0]), int(args[1])) if len(args) >= 2 else None


EXTRA = {
    "harmonics.zonal_band_matrix": ("rows", _rows),
    "rayleigh_ritz.assemble": ("rows", _rows),
    "harmonics.pair_strength": ("terms", _terms),
    "harmonics.coupling_W": ("nonzero", _nonzero),
}


class _EighProxy:
    """Stands in for `scipy.linalg` inside rayleigh_ritz, tracing `eigh`."""

    def __init__(self, linalg, eigh):
        self._linalg = linalg
        self.eigh = eigh

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class Tracer:
    def __init__(self):
        self.names = [ROOT] + [f[0] for f in FUNCTIONS] + [EIGH, DENSITY]
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counters = {}
        self.rules = set()
        self._patches = []

    # -- recording ------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        idx = len(self.start)
        self.name_id.append(self._ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def _wrap(self, name, fn):
        extra = EXTRA.get(name)
        counters = self.counters.setdefault(name, {})
        is_quadrature = name == "quadrature.quadrature"
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if extra is not None:
                key, count = extra
                counters[key] = counters.get(key, 0) + count(result, args,
                                                             kwargs)
            if is_quadrature:
                tracer.rules.add(_rule(result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE
                                      or n.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        for name, mod_name, attr in FUNCTIONS:
            owner = sys.modules.get(PACKAGE + "." + mod_name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        rr = sys.modules.get(PACKAGE + ".rayleigh_ritz")
        linalg = getattr(rr, "linalg", None)
        if linalg is not None and hasattr(linalg, "eigh"):
            proxy = _EighProxy(linalg, self._wrap(EIGH, linalg.eigh))
            self._patches.append((rr, "linalg", linalg))
            rr.linalg = proxy
        density = sys.modules.get(PACKAGE + ".density")
        spec = getattr(density, "DensitySpec", None)
        for attr in CONSTRUCTORS:
            raw = vars(spec).get(attr) if spec is not None else None
            if isinstance(raw, classmethod):
                self._patches.append((spec, attr, raw))
                setattr(spec, attr,
                        classmethod(self._wrap(DENSITY, raw.__func__)))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- reporting ------------------------------------------------------

    def stats(self):
        """Per span name: calls, busy_s (outermost spans) and self_s."""
        n = len(self.start)
        child = [0.0] * n
        names = self.name_id
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            name = self.names[names[i]]
            dur = self.end[i] - self.start[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            p = parent[i]
            while p >= 0 and names[p] != names[i]:
                p = parent[p]
            if p < 0:
                entry["busy_s"] += dur
        for name, counters in self.counters.items():
            out[name].update(counters)
        out["quadrature.quadrature"]["distinct_rules"] = len(self.rules)
        return out

    def write(self, path):
        """Write every span as a CSV line: name, start, end, parent index."""
        with open(path, "w") as handle:
            handle.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                handle.write("%s,%.9f,%.9f,%d\n" % (
                    self.names[self.name_id[i]], self.start[i], self.end[i],
                    self.parent[i]))
