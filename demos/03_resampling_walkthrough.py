"""
Watching the resampler work
===========================

The solver samples a uniform coloring, then repeatedly picks a violated event
(a bad edge, or a pair of edges with the same color pattern) and redraws only
the colors inside that event's scope, until nothing is violated. The trace
records every step: the event, its scope, and the scope's new colors.
"""

from harmcolor import SolverConfig, builtin_instance, resample_solve

h = builtin_instance("cycle", 5)
print("instance:", h, h.edges)

report = resample_solve(h, SolverConfig(t=5, seed=3, trace_limit=100))

print(f"\npalette t = {report.t}, seed = {report.seed}")
print(f"solved after {report.resamples_total} resamples "
      f"({report.resamples_bad_edge} bad-edge, "
      f"{sum(report.resamples_same_pattern.values())} same-pattern)\n")

for step_number, step in enumerate(report.trace, start=1):
    redraws = "  ".join(f"{v}->{c}" for v, c in zip(step.scope, step.colors_after))
    print(f"step {step_number:>2}: {step.event}")
    print(f"         redraw  {redraws}")

print("\nfinal coloring, by vertex:", report.coloring.colors)
print("colors actually used:", report.colors_used)

# the same seed replays the identical run, including every redraw
replay = resample_solve(h, SolverConfig(t=5, seed=3, trace_limit=100))
print("replay identical:", replay.coloring == report.coloring
      and replay.resamples_total == report.resamples_total)
