"""
What the verifier sees: bad edges and repeated color patterns
=============================================================

A coloring is harmonious when every edge is rainbow (all k colors distinct)
and no two edges carry the same set of colors. This script walks the two
failure modes on small instances. A coloring is a list with one color per
vertex, where 0 leaves the vertex uncolored.
"""

from harmcolor import (
    Coloring,
    Hypergraph,
    bad_edges,
    builtin_instance,
    is_harmonious,
    local_bad_events,
    pattern_collisions,
)

# a path on three vertices: edges (0,1) and (1,2)
path = builtin_instance("path", 3)
print("instance:", path, path.edges)

# first failure mode: a repeated color inside an edge
c = Coloring(t=2, colors=[1, 1, 2])
print("\ncoloring 1,1,2  ->  bad edges:", bad_edges(path, c))

# second failure mode: both edges see the color set {1,2}
c = Coloring(t=2, colors=[1, 2, 1])
print("coloring 1,2,1  ->  bad edges:", bad_edges(path, c))
print("coloring 1,2,1  ->  collisions:", pattern_collisions(path, c))
print("harmonious?", is_harmonious(path, c))

# three colors fix it
c = Coloring(t=3, colors=[1, 2, 3])
print("coloring 1,2,3  ->  harmonious?", is_harmonious(path, c))

# the pattern check compares the two difference sets e\f and f\e, so shared
# vertices may stay uncolored and the collision is still decidable
h = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
partial = Coloring(t=2, colors=[1, 0, 0, 1])  # vertices 1 and 2 uncolored
print("\noverlapping 3-edges, only the difference colored:",
      pattern_collisions(h, partial))

# the per-vertex view groups the events a resampling step would look at:
# b1 holds bad edges through the vertex, b2[i] the collisions with |e\f| = i
star = builtin_instance("k-star", 3, k=2)
c = Coloring(t=2, colors=[1, 2, 2, 2])
print("\nstar with all leaves colored 2, seen from the center:")
events = local_bad_events(star, c, 0)
print("  bad edges:", events.b1)
for i, pairs in sorted(events.b2.items()):
    print(f"  collisions with |e\\f| = {i}:", list(pairs))
