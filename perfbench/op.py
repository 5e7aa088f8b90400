"""Run one benchmark operation in this (fresh) interpreter.

    python3 perfbench/op.py '<json spec>'

The spec names the checkout root, the operation (`argv` for the CLI, `call`
for a library call, or `probe` to stop after the imports), the seed, whether
to trace, and where to write the result and the spans.  The operation's own
output goes to this process's stdout, which the harness sends to a file.
"""

import ctypes
import glob
import json
import os
import resource
import sys
import time


def blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, or None if it is not found."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    import cosetcodes.cli as cli

    t_import = time.perf_counter()
    pkg_dir = os.path.dirname(os.path.abspath(sys.modules["cosetcodes"].__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        raise SystemExit(f"cosetcodes imported from {pkg_dir}, not from {src}")
    result = {"t_import": t_import}
    if spec.get("probe"):
        import numpy

        result.update(numpy=numpy.__version__, blas_threads=blas_threads())
    else:
        from cosetcodes import gf

        make_field = gf.make_field  # the cached original, before any wrapping
        tracer = None
        if spec["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        from cosetcodes import css, oracle
        from workloads import CSS_TRUE_DISTANCE_ARGS, CSS_TRUE_DISTANCE_BUDGET

        t0 = time.perf_counter()
        if spec.get("call") == "css_true_distance":
            value = oracle.css_true_distance(
                css.family_block_even(*CSS_TRUE_DISTANCE_ARGS),
                oracle.OracleBudget(CSS_TRUE_DISTANCE_BUDGET, seed=spec["seed"]))
            rc = 0
        else:
            value = None
            try:
                rc = cli.main(spec["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        wall = time.perf_counter() - t0
        sys.stdout.flush()
        result.update(wall=wall, rc=rc, value=value,
                      maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      fields_built=make_field.cache_info().misses)
        if tracer is not None:
            tracer.dump(spec["spans"])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
