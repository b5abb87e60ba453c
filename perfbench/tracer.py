"""Outside-in tracer for the inclab modules.

`Tracer.install()` wraps every public function of the eight inclab modules
and rebinds every name bound to one of them: module attributes in every
inclab module (so `from .x import y` bindings are traced too) and the
function tables kept in module-level lists and dicts, such as
`experiments.VERIFY_PLAN` and `cli.COMMANDS`.  `uninstall()` restores the
originals.  Nothing under `src/` is edited.

Timed functions keep a per-thread span stack, so spans nest correctly
inside a thread pool, and add each finished span into per-thread totals
(calls, self time, span time, raised, work count).  Functions of the
`experiments` layer also add the CPU time of their own thread, so work done
in parallel can be told from threads taking turns on the interpreter lock.
Functions of the `geometry` layer are scalar helpers called about a quarter
of a million times per pass; they only count calls, because timing them
would measure the wrapper.  Totals stay in memory until `stats()` merges
the threads.
"""

import collections
import functools
import importlib
import threading
import time
import types

LAYERS = ("geometry", "measures", "content", "spectral", "incidence",
          "scenarios", "experiments", "cli")
COUNT_ONLY_LAYERS = ("geometry",)
CPU_TIMED_LAYERS = ("experiments",)
STATS = ("calls", "self_s", "total_s", "raised", "work", "cpu_s")


def _first_len(args, result):
    return len(args[0])


def _result_len(args, result):
    return len(result)


CONTENT_WORK = ("cells", _first_len)

# qualified function -> (work stat name, count from positional args and result)
WORK = {
    "spectral.xray": ("lines", lambda args, result: result.n_theta * result.n_r),
    "measures.riesz_energy_direct": ("atoms", _first_len),
    "measures.generate_cantor_measure": ("atoms", _result_len),
    "measures.generate_line_measure": ("atoms", _result_len),
    "incidence.incidences": ("pairs",
                             lambda args, result: len(args[0]) * len(args[1])),
    "content.dyadic_content": CONTENT_WORK,
    "content.smallest_delta_s_constant": CONTENT_WORK,
    "content.multiscale_cover": CONTENT_WORK,
    "content.extract_katz_tao_subset": CONTENT_WORK,
    "content.smallest_katz_tao_constant": CONTENT_WORK,
}


def _modules():
    return {layer: importlib.import_module(f"inclab.{layer}")
            for layer in LAYERS}


def public_functions():
    """{function object: "<layer>.<name>"} for functions defined in a layer."""
    found = {}
    for layer, mod in _modules().items():
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def _assign(target, key, value):
    if isinstance(target, types.ModuleType):
        setattr(target, key, value)
    else:
        target[key] = value


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one record per thread that made a traced call
        self._undo = []

    def _record(self):
        rec = getattr(self._local, "rec", None)
        if rec is None:
            rec = types.SimpleNamespace(
                stack=[], totals=collections.defaultdict(
                    lambda: [0, 0.0, 0.0, 0, 0, 0.0]))  # in STATS order
            self._local.rec = rec
            with self._lock:
                self._threads.append(rec)
        return rec

    def _counted(self, qual, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._record().totals[qual][0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, qual, fn):
        work = WORK.get(qual, (None, None))[1]
        cpu = qual.split(".")[0] in CPU_TIMED_LAYERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._record()
            stack = rec.stack
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            result = None
            raised = True
            cpu_start = time.thread_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                total = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += total
                st = rec.totals[qual]
                st[0] += 1
                st[1] += total - frame[0]
                st[2] += total
                st[3] += raised
                if work and not raised:
                    st[4] += work(args, result)
                if cpu:
                    st[5] += time.thread_time() - cpu_start
        return wrapper

    def install(self):
        wrappers = {}
        for fn, qual in public_functions().items():
            layer = qual.split(".")[0]
            make = self._counted if layer in COUNT_ONLY_LAYERS else self._timed
            wrappers[fn] = make(qual, fn)

        def is_wrapped(x):
            return isinstance(x, types.FunctionType) and x in wrappers

        def traced(value):
            """Replacement for a function or a tuple holding some, else None."""
            if is_wrapped(value):
                return wrappers[value]
            if isinstance(value, tuple) and any(map(is_wrapped, value)):
                return tuple(wrappers[x] if is_wrapped(x) else x for x in value)
            return None

        modules = [importlib.import_module("inclab"), *_modules().values()]
        slots = []
        for mod in modules:
            for name, value in vars(mod).items():
                slots.append((mod, name, value))
                if isinstance(value, dict):
                    slots.extend((value, k, v) for k, v in value.items())
                elif isinstance(value, list):
                    slots.extend((value, i, v) for i, v in enumerate(value))
        for target, key, value in slots:
            new = traced(value)
            if new is not None:
                self._undo.append((target, key, value))
                _assign(target, key, new)
        return self

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            _assign(target, key, original)
        self._undo = []

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self):
        """{qualified name: {calls, self_s, total_s, raised, work, cpu_s}}."""
        out = {}
        for rec in self._threads:
            for qual, values in rec.totals.items():
                merged = out.setdefault(qual, [0] * len(STATS))
                for i, v in enumerate(values):
                    merged[i] += v
        return {qual: dict(zip(STATS, values)) for qual, values in out.items()}
