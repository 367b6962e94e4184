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
columns m..m+n-1, its cells the keys of the flow dict, rooted at row 0
with a parent and a depth per node.  The tree is kept strongly feasible
(W. H. Cunningham, "A network simplex method", Math. Programming 11,
1976): every zero-flow tree cell points from its child toward the root.
Leaving by the last blocking cell of the pivot cycle, met from its apex
in the entering cell's direction, keeps it so and rules out cycling on
the highly degenerate instances this package cares about.

Pricing is block search, as in the LEMON-derived solver of Bonneel, van
de Panne, Paris and Heidrich (ACM TOG 30(6), 2011): the cells are
scanned cyclically in blocks of isqrt(m*n), and the most negative
reduced cost of the first block that has one enters.  A pivot re-hangs
only the subtree the leaving cell cuts off, recomputing its parents,
depths and potentials from the costs along the tree, so float
potentials equal a full rebuild from the root and never drift.  The
pivot count is capped at a multiple of m*n, far above what the
instances here need (under m*n/5 on 20x20 and 40x40 1/8-grid ones).

A solve returns the total, the positive flows and the final row and
column potentials.  On exact problems `transport._certified_solve`
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
    flows = {}  # the basic cells and their flows
    row_nbr = [set() for _ in range(m)]
    col_nbr = [set() for _ in range(n)]

    def add_cell(i, j, q):
        flows[(i, j)] = q
        row_nbr[i].add(j)
        col_nbr[j].add(i)

    def drop_cell(i, j):
        del flows[(i, j)]
        row_nbr[i].discard(j)
        col_nbr[j].discard(i)

    # northwest-corner start: a staircase of m+n-1 basic cells.  Its tie
    # rule advances the row, so a zero-flow cell (i+1, j) hangs child row
    # i+1 from parent column j and points toward the root row 0: the
    # start tree is strongly feasible (on floats, up to rounding in the
    # margin totals).
    rs = list(supply)
    rd = list(demand)
    i = j = 0
    while True:
        q = rs[i] if rs[i] < rd[j] else rd[j]
        add_cell(i, j, q)
        rs[i] -= q
        rd[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif rs[i] == 0:
            i += 1
        else:
            j += 1

    # node k < m is row k, node m + j is column j
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    u = [0] * m
    v = [0] * n

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
                for jj in row_nbr[x]:
                    c = m + jj
                    if c != px:
                        parent[c] = x
                        depth[c] = dx
                        v[jj] = row_cost[jj] - ux
                        stack.append(c)
            else:
                k = x - m
                vk = v[k]
                for ii in col_nbr[k]:
                    if ii != px:
                        parent[ii] = x
                        depth[ii] = dx
                        u[ii] = cost[ii][k] - vk
                        stack.append(ii)

    def cell_above(x):
        """The tree cell joining node x to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    hang(0)

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
            basic = row_nbr[ie]
            for je in range(j0, j1):
                rc = row_cost[je] - ui - v[je]
                if rc < best and je not in basic:
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
        # climb from both ends of the entering cell to the apex
        a, b = ie, m + je
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
        # direction: below its column on the way down, below its row on
        # the way up
        cycle = [(cell_above(x), x < m) for x in reversed(up_a)]
        cycle += [(cell_above(x), x >= m) for x in up_b]
        theta = None
        for cell, loses in cycle:  # in cycle order: <= keeps the last blocking cell
            if loses and (theta is None or flows[cell] <= theta):
                theta = flows[cell]
                leaving = cell
        if theta:
            for cell, loses in cycle:
                flows[cell] += -theta if loses else theta
        drop_cell(*leaving)
        add_cell(ie, je, theta)

        # the cut-off subtree holds row ie when the leaving cell hangs its
        # row from its column, as on the way down; column je otherwise
        li, lj = leaving
        if parent[li] == m + lj:
            top, under = ie, m + je
            u[ie] = cost[ie][je] - v[je]
        else:
            top, under = m + je, ie
            v[je] = cost[ie][je] - u[ie]
        parent[top] = under
        depth[top] = depth[under] + 1
        hang(top)
    else:
        raise RuntimeError("network simplex failed to terminate")

    total = 0
    for (fi, fj), q in flows.items():
        total += cost[fi][fj] * q
    return total, {cell: q for cell, q in flows.items() if q > 0}, u, v
