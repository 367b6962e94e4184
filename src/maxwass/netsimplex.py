"""Dense transportation network simplex, generic over the scalar type.

Exact problems reach it as Python ints, scaled from their rational data
by `transport._integer_instance` (tol=0, every comparison exact); other
problems run on floats, and the tolerance on the reduced-cost test is
the only float-specific code here (`TransportPlan` prunes float dust
from the flows).  Any exact ordered scalar, Fraction included, also
works with tol=0.  The basis is the classic spanning tree on the
bipartite row/column graph, its cells the keys of the flow dict;
pivots follow Bland's rule (first lexicographic entering cell,
lexicographically smallest leaving cell among the ratio-test ties),
which rules out cycling even on the highly degenerate instances this
package cares about.
"""

from __future__ import annotations

from collections import deque

_MAX_PIVOTS = 200_000


def solve_transportation(cost, supply, demand, tol=0):
    """Minimize sum(cost[i][j] * x[i][j]) over the transportation polytope.

    cost: m x n nested sequences; supply, demand: positive sequences with
    equal totals.  Returns (total_cost, flows) where flows maps (i, j)
    to the positive optimal flow values of one optimal vertex.
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

    # northwest-corner start: a staircase of m+n-1 basic cells
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

    for _ in range(_MAX_PIVOTS):
        u = [None] * m
        v = [None] * n
        u[0] = 0
        stack = [(True, 0)]
        while stack:
            is_row, k = stack.pop()
            if is_row:
                for jj in row_nbr[k]:
                    if v[jj] is None:
                        v[jj] = cost[k][jj] - u[k]
                        stack.append((False, jj))
            else:
                for ii in col_nbr[k]:
                    if u[ii] is None:
                        u[ii] = cost[ii][k] - v[k]
                        stack.append((True, ii))

        entering = None
        for ie in range(m):
            ui = u[ie]
            row_cost = cost[ie]
            basic = row_nbr[ie]
            for je in range(n):
                if je in basic:
                    continue
                if row_cost[je] - ui - v[je] < -tol:
                    entering = (ie, je)
                    break
            if entering:
                break
        if entering is None:
            break

        ie, je = entering
        # unique tree path from row ie to column je closes the pivot cycle
        parent = {(True, ie): None}
        queue = deque([(True, ie)])
        goal = (False, je)
        while goal not in parent:
            node = queue.popleft()
            is_row, k = node
            nbrs = row_nbr[k] if is_row else col_nbr[k]
            for nb in nbrs:
                nxt = (not is_row, nb)
                if nxt not in parent:
                    parent[nxt] = node
                    queue.append(nxt)

        path = []
        node = goal
        while node is not None:
            path.append(node)
            node = parent[node]
        # path now runs column je -> ... -> row ie; consecutive nodes are
        # basic cells, alternating -,+,-,... after the entering '+'
        minus, plus = [], []
        for k in range(len(path) - 1):
            a, b = path[k], path[k + 1]
            cell = (a[1], b[1]) if a[0] else (b[1], a[1])
            (minus if k % 2 == 0 else plus).append(cell)

        theta = None
        leaving = None
        for cell in minus:
            q = flows[cell]
            if theta is None or q < theta or (q == theta and cell < leaving):
                theta = q
                leaving = cell
        for cell in plus:
            flows[cell] += theta
        for cell in minus:
            flows[cell] -= theta
        drop_cell(*leaving)
        add_cell(ie, je, theta)
    else:
        raise RuntimeError("network simplex failed to terminate")

    total = 0
    for (fi, fj), q in flows.items():
        total += cost[fi][fj] * q
    return total, {cell: q for cell, q in flows.items() if q > 0}
