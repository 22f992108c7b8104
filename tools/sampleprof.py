#!/usr/bin/env python3
"""Sampling profiler: ``python tools/sampleprof.py --workload update [--seed 1] [--passes 1] [--memory]``.

Runs ``bench/workloads.run_pass(W, seed)`` while ``signal.setitimer``
interrupts the process every millisecond of CPU time (Linux delivers the
profiling timer on its scheduler tick, so expect ~250 samples per CPU
second; ``--passes`` adds samples) and records the interrupted stack. A
function's *self* share is the fraction of samples it was on top of, its
*inclusive* share the fraction it was anywhere on. A layer (a package
under ``src/repro``) is charged the self sample of its innermost frame on
the stack, so stdlib and generated ``__init__`` frames count towards the
repro code that called them; the file table groups those generated
dataclass methods as ``<string>``. Unlike cProfile the timer adds no cost
per call, so call-heavy code is not inflated. Cyclic GC is timed through
``gc.callbacks``; a signal that arrives during a collection is handled in
that callback, so those samples are charged to ``(cyclic gc)``.

``--memory`` profiles allocations instead, over one pass under
``tracemalloc``: the traced peak, what is still allocated after the pass
(after ``gc.collect()``, so the deployment itself is gone and what is left
is held by module-level tables), and those retained bytes by layer and by
file. An allocation is charged to the innermost ``src/repro`` frame of its
traceback, the way the sampler charges CPU.
"""

import argparse
import collections
import gc
import pathlib
import signal
import sys
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src" / "repro") + "/"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402


def label(code) -> str:
    path = code.co_filename
    where = path[len(SRC):] if path.startswith(SRC) else pathlib.Path(path).name
    return f"{where}:{code.co_firstlineno} {getattr(code, 'co_qualname', code.co_name)}"


def layer(code) -> str | None:
    path = code.co_filename
    return path[len(SRC):].split("/")[0].removesuffix(".py") if path.startswith(SRC) else None


def profile(workload: str, seed: int, passes: int):
    self_n, incl_n = collections.Counter(), collections.Counter()
    layer_self, layer_incl = collections.Counter(), collections.Counter()
    samples, gc_s, gc_start = [0], [0.0], [0.0]

    def on_sample(_signum, frame) -> None:
        samples[0] += 1
        if frame.f_code is on_gc.__code__:
            self_n["(cyclic gc)"] += 1
            layer_self["(cyclic gc)"] += 1
            return
        codes, layers, innermost = set(), set(), None
        self_n[label(frame.f_code)] += 1
        while frame is not None:
            code = frame.f_code
            codes.add(code)
            name = layer(code)
            if name is not None:
                layers.add(name)
                innermost = innermost or name
            frame = frame.f_back
        incl_n.update(label(code) for code in codes)
        layer_incl.update(layers)
        layer_self[innermost or "(outside src/repro)"] += 1

    def on_gc(phase: str, _info) -> None:
        if phase == "start":
            gc_start[0] = time.process_time()
        else:
            gc_s[0] += time.process_time() - gc_start[0]

    signal.signal(signal.SIGPROF, on_sample)
    gc.callbacks.append(on_gc)
    cpu0 = time.process_time()
    signal.setitimer(signal.ITIMER_PROF, 1e-3, 1e-3)
    try:
        for _ in range(passes):
            workloads.run_pass(workload, seed)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        gc.callbacks.remove(on_gc)
    cpu = time.process_time() - cpu0
    return samples[0], cpu, gc_s[0], self_n, incl_n, layer_self, layer_incl


def memory(workload: str, seed: int):
    """``(peak, retained, by layer, by file)`` in bytes for one pass."""
    gc.collect()
    tracemalloc.start(8)
    try:
        before = tracemalloc.take_snapshot()
        workloads.run_pass(workload, seed)
        gc.collect()
        _current, peak = tracemalloc.get_traced_memory()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    by_layer, by_file = collections.Counter(), collections.Counter()
    retained = 0
    for stat in after.compare_to(before, "traceback"):
        if stat.size_diff <= 0:
            continue
        retained += stat.size_diff
        # Frames run oldest -> most recent: the last one under src/repro
        # is the innermost repro code that asked for the memory.
        path = next(
            (frame.filename for frame in reversed(stat.traceback)
             if frame.filename.startswith(SRC)),
            None,
        )
        if path is None:
            by_layer["(outside src/repro)"] += stat.size_diff
            by_file[pathlib.Path(stat.traceback[-1].filename).name] += stat.size_diff
        else:
            where = path[len(SRC):]
            by_layer[where.split("/")[0].removesuffix(".py")] += stat.size_diff
            by_file[where] += stat.size_diff
    return peak, retained, by_layer, by_file


def print_memory(args) -> None:
    peak, retained, by_layer, by_file = memory(args.workload, args.seed)
    mib = 1024 * 1024
    print(f"workload {args.workload}  seed {args.seed}  one pass  "
          f"tracemalloc peak {peak / mib:.1f} MiB  retained after the pass "
          f"{retained / 1024:.1f} KiB")
    for title, table in (("layer", by_layer), ("file", by_file)):
        print(f"{'retained by ' + title:44s} {'KiB':>9s}")
        for name, size in table.most_common(args.top):
            print(f"  {name:42s} {size / 1024:9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--memory", action="store_true",
                        help="one pass under tracemalloc instead of the CPU sampler")
    args = parser.parse_args(argv)
    if args.memory:
        print_memory(args)
        return 0
    n, cpu, gc_s, self_n, incl_n, layer_self, layer_incl = profile(
        args.workload, args.seed, args.passes
    )
    print(f"workload {args.workload}  seed {args.seed}  {n} samples  "
          f"cpu {cpu:.2f} s  cyclic gc {100 * gc_s / cpu:.1f} % of cpu")
    print(f"{'layer':44s} {'self':>7s} {'incl':>7s}")
    for name, count in layer_self.most_common():
        print(f"  {name:42s} {100 * count / n:6.1f}% {100 * layer_incl[name] / n:6.1f}%")
    by_file = collections.Counter()
    for name, count in self_n.items():
        by_file[name.split(":")[0]] += count
    print(f"{'file':44s} {'self':>7s}")
    for name, count in by_file.most_common(args.top):
        print(f"  {name:42s} {100 * count / n:6.1f}%")
    for title, table in (("self", self_n), ("inclusive", incl_n)):
        print(f"top {args.top} functions by {title} share        self    incl")
        for name, _count in table.most_common(args.top):
            print(f"  {name[:70]:70s} {100 * self_n[name] / n:6.1f}% "
                  f"{100 * incl_n[name] / n:6.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
