"""The figure/table harness — regenerates every artifact of §V.

For each artifact the harness does two things:

1. **validate** — run the real benchmark on the SMP conduit at a small
   rank count and check its correctness oracle (exactness of GUPS
   replay, stencil vs NumPy, sort order/permutation, image equality,
   hydro field equality across communication modes);
2. **model** — evaluate the calibrated machine model at the paper's
   scales and print the same rows/series the paper reports, next to the
   paper's values where the text states them.

Run as a module::

    python -m repro.bench.harness            # everything
    python -m repro.bench.harness fig5 table4 --validate-ranks 8
"""

from __future__ import annotations

import argparse
import sys

from repro.sim import perfmodel as pm


def _fmt_row(cols, widths):
    return "  ".join(str(c).rjust(w) for c, w in zip(cols, widths))


_CHARTS = False  # toggled by --charts


def ascii_chart(xs, series: dict, title: str = "", height: int = 12,
                logy: bool = True) -> str:
    """A terminal rendering of a figure: one column per x, log-y axis.

    Good enough to eyeball the paper's shapes (crossovers, slopes,
    plateaus) without a plotting stack.
    """
    import math

    vals = [v for s in series.values() for v in s if v > 0]
    if not vals:
        return "(no data)"
    f = (lambda v: math.log10(v)) if logy else (lambda v: v)
    lo = min(f(v) for v in vals)
    hi = max(f(v) for v in vals)
    span = (hi - lo) or 1.0
    marks = "ox+*#"
    width = len(xs)
    grid = [[" "] * width for _ in range(height)]
    for si, (_name, s) in enumerate(series.items()):
        for col, v in enumerate(s):
            if v <= 0:
                continue
            row = height - 1 - int(round((f(v) - lo) / span * (height - 1)))
            cell = grid[row][col]
            grid[row][col] = "@" if cell not in (" ", marks[si % 5]) \
                else marks[si % 5]
    unit = "log10 " if logy else ""
    out = [f"  {title}"]
    for i, row in enumerate(grid):
        label = hi - span * i / (height - 1)
        out.append(f"  {label:7.2f} |" + "".join(row))
    out.append("  " + " " * 8 + "+" + "-" * width)
    out.append(f"  ({unit}y; x = {xs[0]} .. {xs[-1]} cores; " +
               ", ".join(f"{marks[i % 5]}={n}"
                         for i, n in enumerate(series)) + ")")
    return "\n".join(out)


def _maybe_chart(s: dict, title: str, keys: tuple) -> None:
    if _CHARTS:
        print(ascii_chart(s["cores"], {k: s[k] for k in keys},
                          title=title))
        print()


def print_table3() -> None:
    """Table III: benchmark characteristics (inventory)."""
    rows = [
        ("Benchmark", "Computation", "Communication"),
        ("Random Access", "bit-xor operations",
         "global fine-grained random access"),
        ("Stencil", "nearest-neighbor computation", "bulk ghost zone copies"),
        ("Sample Sort", "local quick sort", "irregular one-sided comm"),
        ("Embree", "Monte Carlo integration", "single gatherv/reduction"),
        ("LULESH", "Lagrange leapfrog", "nearest-neighbor (26) comm"),
    ]
    print("== Table III: benchmark characteristics ==")
    for r in rows:
        print(f"  {r[0]:<14} {r[1]:<30} {r[2]}")
    print()


def print_fig4() -> None:
    s = pm.fig4_random_access()
    print("== Fig. 4: Random Access latency per update (usec), BG/Q ==")
    widths = (6, 10, 10)
    print(_fmt_row(("cores", "UPC", "UPC++"), widths))
    for c, u, x in zip(s["cores"], s["upc"], s["upcxx"]):
        print(_fmt_row((c, f"{u:.2f}", f"{x:.2f}"), widths))
    print()
    _maybe_chart(s, "Fig. 4 (usec/update)", ("upc", "upcxx"))


def print_table4() -> None:
    s = pm.table4_gups()
    p = pm.PAPER_TABLE4
    print("== Table IV: Random Access GUPS (model vs paper) ==")
    widths = (8, 12, 12, 12, 12)
    print(_fmt_row(
        ("THREADS", "UPC", "UPC paper", "UPC++", "UPC++ paper"), widths
    ))
    for i, t in enumerate(s["threads"]):
        print(_fmt_row((
            t, f"{s['upc'][i]:.4f}", f"{p['upc'][i]:.4f}",
            f"{s['upcxx'][i]:.4f}", f"{p['upcxx'][i]:.4f}",
        ), widths))
    print()


def print_fig5() -> None:
    s = pm.fig5_stencil()
    print("== Fig. 5: Stencil weak scaling (GFLOPS), Cray XC30 ==")
    widths = (6, 12, 12)
    print(_fmt_row(("cores", "Titanium", "UPC++"), widths))
    for c, t, u in zip(s["cores"], s["titanium"], s["upcxx"]):
        print(_fmt_row((c, f"{t:.1f}", f"{u:.1f}"), widths))
    print(f"  (paper endpoints: ~{pm.PAPER_FIG5['gflops'][0]:.0f} GFLOPS at "
          f"{pm.PAPER_FIG5['cores'][0]}, ~{pm.PAPER_FIG5['gflops'][1]:.0f} "
          f"at {pm.PAPER_FIG5['cores'][1]})\n")
    _maybe_chart(s, "Fig. 5 (GFLOPS)", ("titanium", "upcxx"))


def print_fig6() -> None:
    s = pm.fig6_sample_sort()
    print("== Fig. 6: Sample Sort weak scaling (TB/min), Cray XC30 ==")
    widths = (6, 12, 12)
    print(_fmt_row(("cores", "UPC", "UPC++"), widths))
    for c, u, x in zip(s["cores"], s["upc"], s["upcxx"]):
        print(_fmt_row((c, f"{u:.4g}", f"{x:.4g}"), widths))
    print(f"  (paper: {pm.PAPER_FIG6['tb_per_min'][1]} TB/min at "
          f"{pm.PAPER_FIG6['cores'][1]} cores)\n")
    _maybe_chart(s, "Fig. 6 (TB/min)", ("upc", "upcxx"))


def print_fig7() -> None:
    s = pm.fig7_embree()
    print("== Fig. 7: Embree ray tracing strong scaling (speedup) ==")
    widths = (6, 12, 12)
    print(_fmt_row(("cores", "UPC++", "ideal"), widths))
    for c, x in zip(s["cores"], s["upcxx"]):
        print(_fmt_row((c, f"{x:.1f}", c), widths))
    print("  (paper: 'nearly perfect strong scaling')\n")
    _maybe_chart(s, "Fig. 7 (speedup)", ("upcxx",))


def print_fig8() -> None:
    s = pm.fig8_lulesh()
    print("== Fig. 8: LULESH weak scaling (FOM z/s), Cray XC30 ==")
    widths = (6, 12, 12, 10)
    print(_fmt_row(("cores", "MPI", "UPC++", "UPC++/MPI"), widths))
    for c, m, u in zip(s["cores"], s["mpi"], s["upcxx"]):
        print(_fmt_row((c, f"{m:.3g}", f"{u:.3g}", f"{u / m:.3f}"), widths))
    print(f"  (paper: UPC++ ~{pm.PAPER_FIG8_UPCXX_SPEEDUP_AT_32K:.0%} of MPI "
          "at 32K cores — i.e. about 10% faster)\n")
    _maybe_chart(s, "Fig. 8 (FOM z/s)", ("mpi", "upcxx"))


def print_fig1() -> None:
    """Fig. 1: execute Listing 1's task DAG for real and show the order."""
    import repro

    def body():
        if repro.myrank() != 0:
            repro.barrier()
            return None
        order: list[str] = []
        e1, e2, e3 = repro.Event(), repro.Event(), repro.Event()

        def task(name: str) -> str:
            return name

        def record(name):
            return lambda fut: order.append(name)

        repro.async_(1, signal=e1)(task, "t1").add_callback(record("t1"))
        repro.async_(2, signal=e1)(task, "t2").add_callback(record("t2"))
        repro.async_after(3, after=e1, signal=e2)(task, "t3") \
            .add_callback(record("t3"))
        repro.async_(4 % repro.ranks(), signal=e2)(task, "t4") \
            .add_callback(record("t4"))
        repro.async_after(1, after=e2, signal=e3)(task, "t5") \
            .add_callback(record("t5"))
        repro.async_after(2, after=e2, signal=e3)(task, "t6") \
            .add_callback(record("t6"))
        e3.wait()
        repro.barrier()
        return order

    order = repro.spmd(body, ranks=4)[0]
    print("== Fig. 1 / Listing 1: task dependency graph execution ==")
    print(f"  completion order: {' -> '.join(order)}")
    print("  constraints: t1,t2 before t3; t3,t4 before t5,t6\n")


def validate(ranks: int = 4, conduit=None) -> dict:
    """Run every real benchmark small and return the verification map.

    ``conduit`` ("smp"/"proc"/None) selects the backend for the
    benchmarks that are conduit-parametric (GUPS); the rest run on the
    default backend.
    """
    from repro.bench import gups, lulesh, raytrace, sample_sort, stencil

    cube = max(8, ranks) if round(ranks ** (1 / 3)) ** 3 == ranks else 8
    out = {}
    r = gups.run(ranks=ranks, log2_table_size=10, updates_per_rank=64,
                 variant="upcxx", conduit=conduit)
    out["gups/upcxx"] = r.verified
    r = gups.run(ranks=ranks, log2_table_size=10, updates_per_rank=64,
                 variant="upc", conduit=conduit)
    out["gups/upc"] = r.verified
    r = stencil.run(ranks=ranks, box=6, iters=2)
    out["stencil"] = r.verified
    r = sample_sort.run(ranks=ranks, keys_per_rank=2048, variant="upcxx")
    out["sample_sort/upcxx"] = r.verified
    r = sample_sort.run(ranks=ranks, keys_per_rank=2048, variant="upc")
    out["sample_sort/upc"] = r.verified
    r = raytrace.run(ranks=ranks, image=32, tile=8, spp=2)
    out["raytrace"] = r.verified
    r = lulesh.run(ranks=cube, box=5, steps=2, comm="one-sided")
    out["lulesh/one-sided"] = r.verified
    r = lulesh.run(ranks=cube, box=5, steps=2, comm="two-sided")
    out["lulesh/two-sided"] = r.verified
    return out


def print_fig3() -> None:
    """Fig. 3, executed: the runtime's local/remote branch for a
    shared-array assignment, shown by tracing the conduit."""
    import numpy as np

    import repro
    from repro.gasnet.trace import Trace

    def body():
        me = repro.myrank()
        sa = repro.SharedArray(np.int64, size=2, block=1)
        repro.barrier()
        report = None
        if me == 0:
            trace = Trace(repro.current_world())
            with trace:
                sa[0] = 1   # element 0: local
                local_ops = trace.count()
                sa[1] = 1   # element 1: remote (rank 1)
            remote_ops = trace.count() - local_ops
            stats = repro.current_world().ranks[0].stats
            report = (local_ops, remote_ops, stats.local_accesses)
        repro.barrier()
        return report

    local_ops, remote_ops, local_hits = repro.spmd(body, ranks=2)[0]
    print("== Fig. 3: translation & execution flow, executed ==")
    print("  sa[0] = 1   (owner: rank 0)  ->  local access branch:"
          f"   {local_ops} conduit ops (direct segment view)")
    print("  sa[1] = 1   (owner: rank 1)  ->  remote access branch:"
          f"  {remote_ops} conduit op (one-sided put)")
    print(f"  runtime counters: {local_hits} local accesses recorded\n")


def print_calibration() -> None:
    """Live software-overhead measurement -> model parameters."""
    from repro.sim.calibrate import fitted_overheads, \
        measure_software_overheads
    from repro.sim.machine import EDISON

    meas = measure_software_overheads(iters=1000)
    print("== live calibration (SMP conduit) ==")
    print(f"  local shared access     {meas.local_access * 1e6:9.2f} us")
    print(f"  remote access (UPC++)   {meas.upcxx_remote * 1e6:9.2f} us")
    print(f"  remote access (UPC)     {meas.upc_remote * 1e6:9.2f} us")
    print(f"  async round trip        {meas.async_rtt * 1e6:9.2f} us")
    print(f"  bulk copy bandwidth     {meas.copy_bw / 1e9:9.2f} GB/s")
    print(f"  UPC/UPC++ ratio         {meas.upc_over_upcxx:9.3f}")
    fit = fitted_overheads(EDISON, meas)
    print(f"  refit upc fine-grained  "
          f"{fit['upc'].fine_grained * 1e6:9.3f} us (model scale)")
    print(f"  python->model scale     {fit['python_to_model_scale']:.2e}")
    print()


ARTIFACTS = {
    "table3": print_table3,
    "fig1": print_fig1,
    "fig3": print_fig3,
    "fig4": print_fig4,
    "table4": print_table4,
    "fig5": print_fig5,
    "fig6": print_fig6,
    "fig7": print_fig7,
    "fig8": print_fig8,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the paper's tables and figures."
    )
    parser.add_argument("artifacts", nargs="*",
                        help=f"subset of {sorted(ARTIFACTS)} (default: all)")
    parser.add_argument("--validate-ranks", type=int, default=0,
                        help="also run real small-scale validation at N ranks")
    parser.add_argument("--charts", action="store_true",
                        help="render ascii charts of each figure")
    parser.add_argument("--calibrate", action="store_true",
                        help="measure this library's live software "
                             "overheads and the refit model parameters")
    parser.add_argument("--conduit",
                        choices=("smp", "proc", "proc+ring", "proc+socket"),
                        default=None,
                        help="conduit backend for the conduit-parametric "
                             "run (--validate-ranks GUPS): smp = "
                             "ranks as threads, proc = ranks as OS "
                             "processes over shared memory (+ring/+socket "
                             "pins the proc AM transport)")
    args = parser.parse_args(argv)
    global _CHARTS
    _CHARTS = args.charts
    wanted = args.artifacts or list(ARTIFACTS)
    for name in wanted:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; known: {sorted(ARTIFACTS)}")
            return 2
        ARTIFACTS[name]()
    if args.calibrate:
        print_calibration()
    if args.validate_ranks:
        print("== real small-scale validation ==")
        for k, ok in validate(args.validate_ranks,
                              conduit=args.conduit).items():
            print(f"  {k:<22} {'PASS' if ok else 'FAIL'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
