"""Reference implementations that tests compare the library against.

A plain module, not a conftest: test modules import from it directly.
"""

from typing import Sequence

from coxgraph.perms import Permutation, compose


def bfs_group_order(gens: Sequence[Permutation], limit: int = 10**6) -> int:
    """Order of the permutation group generated by gens, by breadth-first
    closure under right multiplication.  Guarded: raises past the limit.
    """
    if not gens:
        return 1
    n = gens[0].n
    identity = Permutation.identity(n)
    seen = {identity.images}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = compose(g, h)
                if prod.images not in seen:
                    seen.add(prod.images)
                    nxt.append(prod)
                    if len(seen) > limit:
                        raise OverflowError(f"group order exceeds guard {limit}")
        frontier = nxt
    return len(seen)
