"""Self-test of the benchmark's tracer, on a tiny sweep; runs in seconds.

    python3 perfbench/selftest.py

Checks that self time is a span's duration minus its direct children's,
that every wrapped attribute is the original object again after a traced
sweep, and that the traced sweep's summary.csv equals the untraced one's
byte for byte. Exit status 0 when all hold, 1 otherwise.
"""

import dataclasses
import sys

import tracer as tr
from run import run_sweep
from workloads import OUT, WORKLOADS, import_program, write_config


def check_self_time():
    """Nested fake layers: the outer self time excludes exactly its children."""
    t = tr.Tracer()
    inner = t.span("inner", lambda: sum(range(2000)))
    outer = t.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    _, parent, _, dur, self_t = t.self_times()
    return (list(parent) == [-1, 0, 0, 0] and all(self_t[1:] == dur[1:])
            and abs(self_t[0] - (dur[0] - dur[1:].sum())) < 1e-12 and self_t[0] > 0.0)


def main():
    spbfgs = import_program()
    tiny = dataclasses.replace(WORKLOADS["traced-cells"], replicates=1)
    out = OUT / "selftest"
    originals = [(o, a, getattr(o, a)) for o, a in tr.targets(spbfgs)]
    plain = run_sweep(spbfgs, write_config(tiny, 3, out / "untraced"))
    tracer = tr.Tracer()
    traced = run_sweep(spbfgs, write_config(tiny, 3, out / "traced"), tracer)
    results = {
        "self time is duration minus direct children": check_self_time(),
        "every wrapped attribute restored": all(getattr(o, a) is f for o, a, f in originals),
        "traced summary.csv equals untraced": traced.summary == plain.summary,
        "traced sweep recorded spans of every layer": {
            "optimizer._run", "linesearch.backtrack", "noise.f", "noise.ball", "problems.f",
            "updates.spbfgs_update", "policy.propose_beta", "bench.run_one",
            "bench.write_traces_csv"} <= set(tracer.names),
    }
    for label, ok in results.items():
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
