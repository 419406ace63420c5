"""One cold set-up, timed in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py M [M ...]   (with src on PYTHONPATH)

Times `import ovalbent` plus, for each m, a cold `field_make(m)` and the
per-field tables that commands build lazily.  Prints the seconds at
nominal speed (see speed.py), then the raw seconds.  The set-up is timed
at raw wall time when it used more CPU than one thread.
"""

import sys
import time

import speed


def build_tables(ms) -> None:
    from ovalbent import gf
    for m in ms:
        p = gf.field_make(m)
        p.conj_table()
        p.unit_class_table()
        p.line_trace_basis()
        p.tr_mask_table()
        p.project_table()
        p.F.trace_table()


def main(argv: list[str]) -> None:
    with speed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        c0 = time.process_time()
        import ovalbent.cli  # noqa: F401  (what every command imports)
        build_tables([int(a) for a in argv])
        c1 = time.process_time()
        t1 = time.perf_counter()
    print(repr(probe.scaled(t0, t1, c1 - c0)), repr(t1 - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
