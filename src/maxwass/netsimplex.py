"""Dense transportation network simplex, generic over the scalar type.

Exact problems reach it as Python ints, which
`transport._integer_instance` rescales from the integer forms the
measures carry since they were built (tol=0, every comparison exact);
its flows stay ints until a caller that keeps the plan divides them by
the weight scale.  Other problems run on floats, and the tolerance on
the reduced-cost test is the only float-specific code here
(a plan built from them prunes float dust).  Any exact ordered
scalar, Fraction included, also works with tol=0.

The basis is a spanning tree on the bipartite graph of rows 0..m-1 and
columns m..m+n-1, rooted at row 0, and every lookup in it is by node:
each node but the root owns the tree cell to its parent, and keeps
that cell's flow beside its parent.  The tree carries the index of
LEMON's network simplex (P. Kovács, "Minimum-cost flow algorithms: an
experimental evaluation", Optim. Methods Softw. 30(1), 2015): a
thread through the nodes in preorder, its reverse, and per node the
size of its subtree and the subtree's last node in thread order.  The
northwest-corner staircase opens each row or column below the node it
opened last or that node's parent, so its opening order is already a
preorder: the start sets parent, flow and potential for the row or
column each cell opens, and the first pivot reads the index off that
order, so a solve whose starting tree is already optimal never builds
it.  Most solves are such: over the eight short `maxwass verify`
suites at seeds 0-2, 431 of the 1,007 solves that reach it pivot
(counted by wrapping this solver where transport calls it, and
`_tree_index`, which a solve calls once, at its first pivot).
The tree is kept strongly feasible (W. H. Cunningham, "A network
simplex method", Math. Programming 11, 1976): every zero-flow tree
cell points from its child toward the root.  Leaving by the last
blocking cell of the pivot cycle, met from its apex in the entering
cell's direction, keeps it so and rules out cycling on the highly
degenerate instances this package cares about.

Pricing is block search, as in the LEMON-derived solver of Bonneel, van
de Panne, Paris and Heidrich (ACM TOG 30(6), 2011): the cells are
scanned cyclically in blocks of isqrt(m*n), and the most negative
reduced cost of the first block that has one enters.  A basic cell
never does, as its reduced cost is 0 (on floats, within rounding far
below the tolerance).  The cycle is found by climbing from the end of
the entering cell with the smaller subtree.  A pivot updates the index
by one stem reversal, as LEMON does in general: only the stem, the
tree path from the entering cell up to the leaving cell, reverses,
each of its flows passing to the node below, and the subtree the
leaving cell cuts off moves in the thread as a whole.  When the
leaving cell joins an end of the entering cell to that end's parent,
the stem is empty, and the pivot takes the same path.  The moved
subtree's potentials are then recomputed along the thread from the
costs of the tree cells, so float potentials equal a full rebuild from
the root and never drift.  The pivot count is capped at a
multiple of m*n, far above what the instances here need (under m*n/5
on 20x20 and 40x40 1/8-grid ones).

A solve returns the total, the positive flows and the final row and
column potentials.  The total is summed over the positive flows in
row-major cell order, so on floats it does not depend on the pivots
that reached the vertex.  On exact problems `transport._certified_solve`
checks them as an optimality certificate, independently of the pivots
that produced them, and `transport.is_unique_optimal_plan` reads the
potentials as the optimal dual.  Exact problems reach this solver
only when both sides have three atoms or more: with two atoms on a
side `transport` solves them in closed form, and with one, exact or
float, it takes the product plan, the vertex this solver's northwest
corner returns there with no pivot.  Float problems with two atoms or
more per side all come here.
"""

from __future__ import annotations

from math import isqrt

_PIVOTS_PER_CELL = 20


def _tree_index(order, parent):
    """The index of the tree with the given parents whose preorder is
    `order`: thread[x] is the node after x in that order, circular back
    to the root, and rev_thread its inverse; succ_num[x] counts the
    subtree of x, x included, and last_succ[x] is its last node in
    thread order."""
    nodes = len(order)
    thread = [0] * nodes
    rev_thread = [0] * nodes
    for x, y in zip(order, order[1:] + order[:1]):
        thread[x] = y
        rev_thread[y] = x
    succ_num = [1] * nodes
    for x in reversed(order[1:]):
        succ_num[parent[x]] += succ_num[x]
    last_succ = [0] * nodes
    for k, x in enumerate(order):
        last_succ[x] = order[k + succ_num[x] - 1]
    return thread, rev_thread, succ_num, last_succ


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
    flow = [0] * (m + n)
    u = [0] * m
    v = [0] * n

    # northwest-corner start: a staircase of m+n-1 basic cells, each of
    # which opens a new row or column below the one it shares with the
    # cells before it.  Its tie rule advances the row, so a zero-flow
    # cell (i+1, j) hangs child row i+1 from parent column j and points
    # toward the root row 0: the start tree is strongly feasible (on
    # floats, up to rounding in the margin totals).  The shared node is
    # the last one opened or its parent, whose other children have no
    # children yet, so the opening order is a preorder.
    rs = list(supply)
    rd = list(demand)
    i = j = 0
    order = [0]
    opens_row = False  # the first cell opens column 0 below the root
    while True:
        q = rs[i] if rs[i] < rd[j] else rd[j]
        rs[i] -= q
        rd[j] -= q
        c = m + j
        if opens_row:
            parent[i] = c
            flow[i] = q
            u[i] = cost[i][j] - v[j]
            order.append(i)
        else:
            parent[c] = i
            flow[c] = q
            v[j] = cost[i][j] - u[i]
            order.append(c)
        if i == m - 1 and j == n - 1:
            break
        opens_row = i < m - 1 and (j == n - 1 or rs[i] == 0)
        if opens_row:
            i += 1
        else:
            j += 1

    thread = None  # the tree index, built at the first pivot
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
            for je in range(j0, j1):
                rc = row_cost[je] - ui - v[je]
                if rc < best:
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
        if thread is None:
            thread, rev_thread, succ_num, last_succ = _tree_index(order, parent)

        ie, je = entering
        ce = m + je
        # climb from both ends of the entering cell to the apex, always
        # from the end with the smaller subtree, which is not the apex;
        # both paths alternate row and column, up_a from row ie, up_b
        # from column je
        a, b = ie, ce
        up_a, up_b = [], []
        while a != b:
            if succ_num[a] < succ_num[b]:
                up_a.append(a)
                a = parent[a]
            else:
                up_b.append(b)
                b = parent[b]
        apex = a
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
        # hangs from the entering cell by its end `top`, so the stem from
        # `top` up to `out` reverses, each cell's flow passing to the node
        # below it and `top` taking the entering flow theta; when `top` is
        # `out` the stem is empty and only `out` changes parent.  The
        # index follows the general case of LEMON's updateTreeStructure.
        if out < m:
            top, under = ie, ce
        else:
            top, under = ce, ie
        out_parent = parent[out]
        old_rev_thread = rev_thread[out]
        old_succ_num = succ_num[out]
        old_last_succ = last_succ[out]
        # after the moved subtree the thread goes on where it went on
        # after `under`; when `under` came right before `out`, that is
        # after the old subtree of `out`
        if old_rev_thread == under:
            thread_continue = thread[old_last_succ]
        else:
            thread_continue = thread[under]
        # thread the stem nodes after `under`, each one's remaining
        # subtree followed by the next stem node, and give each its
        # new parent
        stem, par_stem = top, under
        last = last_succ[top]
        after = thread[last]
        thread[under] = top
        dirty = [under]  # nodes whose thread successor changed
        while stem != out:
            next_stem = parent[stem]
            thread[last] = next_stem
            dirty.append(last)
            before = rev_thread[stem]
            thread[before] = after
            rev_thread[after] = before
            parent[stem] = par_stem
            par_stem = stem
            stem = next_stem
            # the subtree of the new stem node, less the part below
            # par_stem, ends where par_stem's began if both ended alike
            if last_succ[stem] == last_succ[par_stem]:
                last = rev_thread[par_stem]
            else:
                last = last_succ[stem]
            after = thread[last]
        parent[out] = par_stem
        thread[last] = thread_continue
        rev_thread[thread_continue] = last
        last_succ[out] = last
        if old_rev_thread != under:
            thread[old_rev_thread] = after
            rev_thread[after] = old_rev_thread
        for x in dirty:
            rev_thread[thread[x]] = x
        # down the reversed stem from `out` to `top`: flows, subtree
        # sizes and the shared last node
        size = 0
        x = out
        while x != top:
            p = parent[x]
            flow[x] = flow[p]
            size += succ_num[x] - succ_num[p]
            succ_num[x] = size
            last_succ[p] = last
            x = p
        flow[top] = theta
        succ_num[top] = old_succ_num

        # the subtrees that ended at `under` now end with the moved
        # subtree; below the apex, those that ended with the old subtree
        # of `out` end where it began, or with the moved subtree when it
        # kept its place in the thread
        new_last = last_succ[out]
        up_limit = apex if last_succ[apex] == under else -1
        x = under
        while x != -1 and last_succ[x] == under:
            last_succ[x] = new_last
            x = parent[x]
        out_last = old_rev_thread if old_rev_thread not in (apex, under) else new_last
        x = out_parent
        while x != up_limit and last_succ[x] == old_last_succ:
            last_succ[x] = out_last
            x = parent[x]
        x = under
        while x != apex:
            succ_num[x] += old_succ_num
            x = parent[x]
        x = out_parent
        while x != apex:
            succ_num[x] -= old_succ_num
            x = parent[x]

        # potentials of the moved subtree, in thread order from `top`, so
        # each node's parent comes first
        stop = thread[last_succ[top]]
        x = top
        while x != stop:
            p = parent[x]
            if x < m:
                k = p - m
                u[x] = cost[x][k] - v[k]
            else:
                k = x - m
                v[k] = cost[p][k] - u[p]
            x = thread[x]
    else:
        raise RuntimeError("network simplex failed to terminate")

    kept = []
    for x in range(1, m + n):
        q = flow[x]
        if q > 0:
            kept.append(((x, parent[x] - m) if x < m else (parent[x], x - m), q))
    # cells are distinct, so the pairs sort row-major by cell alone
    kept.sort()
    total = 0
    for (fi, fj), q in kept:
        total += cost[fi][fj] * q
    return total, dict(kept), u, v
