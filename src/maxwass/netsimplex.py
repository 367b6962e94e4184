"""Dense transportation network simplex, generic over the scalar type.

Exact problems reach it as Python ints, which
`transport._integer_instance` rescales from the integer forms the
measures carry since they were built (tol=0, every comparison exact);
its flows stay ints until a caller that keeps the plan divides them by
the weight scale.  Other problems run on floats, and the tolerance on
the reduced-cost test is the only float-specific code here
(`TransportPlan` prunes float dust from the flows).  Any exact ordered
scalar, Fraction included, also works with tol=0.

The basis is a spanning tree on the bipartite graph of rows 0..m-1 and
columns m..m+n-1, rooted at row 0, and every lookup in it is by node:
each node but the root owns the tree cell to its parent, and keeps
that cell's flow beside its parent and its depth; one set of tree
neighbours per node serves the re-hang and tells basic cells from the
rest in pricing.  The northwest-corner start sets parent, depth, flow
and potential directly for the row or column each staircase cell
opens.  The tree is kept strongly feasible (W. H. Cunningham, "A
network simplex method", Math. Programming 11, 1976): every zero-flow
tree cell points from its child toward the root.  Leaving by the last
blocking cell of the pivot cycle, met from its apex in the entering
cell's direction, keeps it so and rules out cycling on the highly
degenerate instances this package cares about.

Pricing is block search, as in the LEMON-derived solver of Bonneel, van
de Panne, Paris and Heidrich (ACM TOG 30(6), 2011): the cells are
scanned cyclically in blocks of isqrt(m*n), and the most negative
reduced cost of the first block that has one enters.  A pivot re-hangs
only the subtree the leaving cell cuts off: the tree path from the
entering cell up to the leaving cell reverses, each of its flows
passing to the node below, and the parents, depths and potentials of
the subtree are recomputed from the costs along the tree, so float
potentials equal a full rebuild from the root and never drift.  The
pivot count is capped at a multiple of m*n, far above what the
instances here need (under m*n/5 on 20x20 and 40x40 1/8-grid ones).

A solve returns the total, the positive flows and the final row and
column potentials.  The total is summed over the positive flows in
row-major cell order, so on floats it does not depend on the pivots
that reached the vertex.  On exact problems `transport._certified_solve`
checks them as an optimality certificate, independently of the pivots
that produced them, and `transport.is_unique_optimal_plan` reads the
potentials as the optimal dual.
"""

from __future__ import annotations

from math import isqrt

_PIVOTS_PER_CELL = 20


def solve_transportation(cost, supply, demand, tol=0):
    """Minimize sum(cost[i][j] * x[i][j]) over the transportation polytope.

    cost: m x n nested sequences; supply, demand: positive sequences with
    equal totals.  Returns (total_cost, flows, u, v): flows maps (i, j)
    to the positive flow values of one optimal vertex, and the row and
    column potentials u, v of its final basis are an optimal dual:
    cost[i][j] - u[i] - v[j] is >= -tol on every cell and 0 on the flows
    (exactly on ints, up to rounding on floats).
    """
    m, n = len(supply), len(demand)
    # node k < m is row k, node m + j is column j; every node but the
    # root row 0 owns the tree cell to its parent and that cell's flow
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    flow = [0] * (m + n)
    nbr = [set() for _ in range(m + n)]  # tree neighbours
    u = [0] * m
    v = [0] * n

    # northwest-corner start: a staircase of m+n-1 basic cells, each of
    # which opens a new row or column below the one it shares with the
    # cells before it.  Its tie rule advances the row, so a zero-flow
    # cell (i+1, j) hangs child row i+1 from parent column j and points
    # toward the root row 0: the start tree is strongly feasible (on
    # floats, up to rounding in the margin totals).
    rs = list(supply)
    rd = list(demand)
    i = j = 0
    opens_row = False  # the first cell opens column 0 below the root
    while True:
        q = rs[i] if rs[i] < rd[j] else rd[j]
        rs[i] -= q
        rd[j] -= q
        c = m + j
        nbr[i].add(c)
        nbr[c].add(i)
        if opens_row:
            parent[i] = c
            depth[i] = depth[c] + 1
            flow[i] = q
            u[i] = cost[i][j] - v[j]
        else:
            parent[c] = i
            depth[c] = depth[i] + 1
            flow[c] = q
            v[j] = cost[i][j] - u[i]
        if i == m - 1 and j == n - 1:
            break
        opens_row = i < m - 1 and (j == n - 1 or rs[i] == 0)
        if opens_row:
            i += 1
        else:
            j += 1

    def hang(top):
        """Parents, depths and potentials below `top`, from its own."""
        stack = [top]
        while stack:
            x = stack.pop()
            px = parent[x]
            dx = depth[x] + 1
            if x < m:
                ux = u[x]
                row_cost = cost[x]
                for c in nbr[x]:
                    if c != px:
                        parent[c] = x
                        depth[c] = dx
                        k = c - m
                        v[k] = row_cost[k] - ux
                        stack.append(c)
            else:
                k = x - m
                vk = v[k]
                for r in nbr[x]:
                    if r != px:
                        parent[r] = x
                        depth[r] = dx
                        u[r] = cost[r][k] - vk
                        stack.append(r)

    cells = m * n
    block = max(1, isqrt(cells))
    pos = 0  # the next cell to price, row-major
    for _ in range(_PIVOTS_PER_CELL * cells):
        best = -tol
        entering = None
        scanned = in_block = 0
        while scanned < cells:
            ie, j0 = divmod(pos, n)
            j1 = min(n, j0 + block - in_block, j0 + cells - scanned)
            ui = u[ie]
            row_cost = cost[ie]
            basic = nbr[ie]
            for je in range(j0, j1):
                rc = row_cost[je] - ui - v[je]
                if rc < best and m + je not in basic:
                    best = rc
                    entering = (ie, je)
            step = j1 - j0
            scanned += step
            in_block += step
            pos = (pos + step) % cells
            if in_block == block:
                if entering is not None:
                    break
                in_block = 0
        if entering is None:
            break

        ie, je = entering
        ce = m + je
        # climb from both ends of the entering cell to the apex; both
        # paths alternate row and column, up_a from row ie, up_b from
        # column je
        a, b = ie, ce
        up_a, up_b = [], []
        while a != b:
            if depth[a] >= depth[b]:
                up_a.append(a)
                a = parent[a]
            else:
                up_b.append(b)
                b = parent[b]
        # the cycle runs from the apex down to row ie, through the
        # entering cell, then from column je up to the apex; a tree cell
        # loses flow where the cycle meets it against its row -> column
        # direction: below its row on the way down, below its column on
        # the way up
        down_losers = up_a[::2]
        up_losers = up_b[::2]
        losers = down_losers[::-1] + up_losers
        out = losers[0]
        theta = flow[out]
        for x in losers:  # in cycle order: <= keeps the last blocking cell
            if flow[x] <= theta:
                theta = flow[x]
                out = x
        if theta:
            for x in down_losers:
                flow[x] -= theta
            for x in up_a[1::2]:
                flow[x] += theta
            for x in up_losers:
                flow[x] -= theta
            for x in up_b[1::2]:
                flow[x] += theta

        # the leaving cell cuts off the subtree of its child node `out`:
        # a row on the way down, whose subtree holds row ie; a column on
        # the way up, whose subtree holds column je.  That subtree now
        # hangs from the entering cell, so the tree path from its new top
        # up to `out` reverses and each cell's flow passes to the node
        # below it, the top taking the entering flow theta.
        po = parent[out]
        nbr[out].discard(po)
        nbr[po].discard(out)
        nbr[ie].add(ce)
        nbr[ce].add(ie)
        if out < m:
            top, under = ie, ce
            u[ie] = cost[ie][je] - v[je]
        else:
            top, under = ce, ie
            v[je] = cost[ie][je] - u[ie]
        x, q = top, theta
        while x != out:
            flow[x], q = q, flow[x]
            x = parent[x]
        flow[out] = q
        parent[top] = under
        depth[top] = depth[under] + 1
        hang(top)
    else:
        raise RuntimeError("network simplex failed to terminate")

    kept = sorted(
        (x, parent[x] - m, flow[x]) if x < m else (parent[x], x - m, flow[x])
        for x in range(1, m + n)
        if flow[x] > 0
    )
    total = 0
    for fi, fj, q in kept:
        total += cost[fi][fj] * q
    return total, {(fi, fj): q for fi, fj, q in kept}, u, v
