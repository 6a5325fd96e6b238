"""Per-layer tracing of vdcset's public functions, applied from outside the library.

A ``Tracer`` replaces each traced function at every name its callers look
it up under: every ``vdcset`` module attribute that is the original
function object (``blocks`` imports ``convolve`` and ``from_samples``
directly, ``tower`` imports ``multiply``, ``certify`` imports
``solve_lp``, ...), and the class attribute for ``AtomicMeasure``
methods.  ``uninstall`` puts every original back.

For each traced function the wrapper records ``calls``, ``total_s`` and
``self_s`` (its span minus the spans of traced functions it called), plus
the size counters in ``COUNTERS``.  Spans live in memory; ``snapshot``
closes the spans still open, so a case stopped at its cap keeps the time
it had spent so far.
"""

import functools
import importlib
import sys
import time

# (module, attribute path, reported name)
TRACED = [
    ("trigpoly", "sample_values", "trigpoly.sample_values"),
    ("trigpoly", "multiply", "trigpoly.multiply"),
    ("measures", "AtomicMeasure.__post_init__", "measures.AtomicMeasure.init"),
    ("measures", "AtomicMeasure.fourier", "measures.fourier"),
    ("measures", "from_samples", "measures.from_samples"),
    ("measures", "convolve", "measures.convolve"),
    ("blocks", "block_polynomials", "blocks.block_polynomials"),
    ("blocks", "block_residuals", "blocks.block_residuals"),
    ("blocks", "build_block", "blocks.build_block"),
    ("blocks", "build_witness", "blocks.build_witness"),
    ("blocks", "zero_set", "blocks.zero_set"),
    ("tower", "tower_block", "tower.tower_block"),
    ("tower", "tower_extend", "tower.tower_extend"),
    ("tower", "claim_residuals", "tower.claim_residuals"),
    ("combinatorics", "digit_difference", "combinatorics.digit_difference"),
    ("combinatorics", "find_agreement_pair", "combinatorics.find_agreement_pair"),
    ("combinatorics", "strong_poincare", "combinatorics.strong_poincare"),
    ("simplex", "solve_lp", "simplex.solve_lp"),
    ("certify", "max_atom_lp", "certify.max_atom_lp"),
    ("certify", "reverify_witness", "certify.reverify_witness"),
    ("certify", "max_avoiding_set", "certify.max_avoiding_set"),
    ("cli", "main", "cli.main"),
]

SPAN_STATS = ("calls", "total_s", "self_s")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_sample_values(stats, args, kwargs):
    stats["points"] += int(_arg(args, kwargs, 1, "grid"))
    stats["terms"] += len(_arg(args, kwargs, 0, "f").coeffs)


def _count_init(stats, args, kwargs):
    stats["atoms"] += int(args[0].order)


def _count_multiply(stats, result):
    if result is not None:
        stats["terms_out"] += len(result.coeffs)


def _count_convolve(stats, result):
    if result is not None:
        stats["atoms"] += result.order


def _count_solve_lp(stats, result):
    if result is None:
        stats["failed"] += 1
    else:
        stats["pivots"] += int(result.iterations)


# reported name -> (counter names, update from the arguments on entry,
# update from the result on exit; the result is None when the call raised)
COUNTERS = {
    "trigpoly.sample_values": (("points", "terms"), _count_sample_values, None),
    "trigpoly.multiply": (("terms_out",), None, _count_multiply),
    "measures.convolve": (("atoms",), None, _count_convolve),
    "measures.AtomicMeasure.init": (("atoms",), _count_init, None),
    "simplex.solve_lp": (("pivots", "failed"), None, _count_solve_lp),
}
NO_COUNTERS = ((), None, None)


def metric_names() -> list:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for _, _, name in TRACED:
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"), (f"{name}.self_s", "s")]
        for counter in COUNTERS.get(name, NO_COUNTERS)[0]:
            out.append((f"{name}.{counter}", "count"))
    return out


class Tracer:
    def __init__(self):
        self.stats = {}
        for _, _, name in TRACED:
            self.stats[name] = dict.fromkeys(SPAN_STATS, 0)
            for counter in COUNTERS.get(name, NO_COUNTERS)[0]:
                self.stats[name][counter] = 0
        self.stack = []  # open spans: [name, start, time spent in traced children]
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        _, on_entry, on_exit = COUNTERS.get(name, NO_COUNTERS)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats["calls"] += 1
            if on_entry is not None:
                on_entry(stats, args, kwargs)
            span = [name, time.perf_counter(), 0.0]
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - span[1]
                stack.pop()
                stats["total_s"] += duration
                stats["self_s"] += duration - span[2]
                if stack:
                    stack[-1][2] += duration
                if on_exit is not None:
                    on_exit(stats, result)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "vdcset" or key.startswith("vdcset.")]
        for module_name, path, name in TRACED:
            module = importlib.import_module(f"vdcset.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                sites = [(owner, attr)]
            else:
                original = getattr(module, attr)
                sites = [
                    (m, key) for m in modules for key, value in vars(m).items() if value is original
                ]
            original = getattr(sites[0][0], sites[0][1])
            wrapper = self._wrap(name, original)
            for owner, key in sites:
                self._patched.append((owner, key, original))
                setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def snapshot(self) -> dict:
        """Non-zero stats, with spans still open closed at the present time."""
        stats = {name: dict(values) for name, values in self.stats.items()}
        now = time.perf_counter()
        child = 0.0
        for name, start, children in reversed(list(self.stack)):
            duration = now - start
            stats[name]["total_s"] += duration
            stats[name]["self_s"] += duration - children - child
            child = duration
        return {name: values for name, values in stats.items() if values["calls"]}
